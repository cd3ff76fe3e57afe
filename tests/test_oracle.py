import pytest

from pbsg import (
    DEFAULT_BUDGET,
    GeneratorSet,
    LimitExceeded,
    PartialBijection,
    PropertyName,
    close,
    oracle_identities,
    oracle_models,
    oracle_report,
    parse_identity,
)
from pbsg.identities import apply_assignment

from conftest import pb, seeded_generator_sets


def clo_of(*texts):
    return close(GeneratorSet.from_elements([pb(t) for t in texts]))


class TestPropertyChecks:
    def test_identity_closure_is_group_and_semilattice(self):
        clo = clo_of("1 2 3")
        assert oracle_report(clo, PropertyName.GROUP).holds
        assert oracle_report(clo, PropertyName.SEMILATTICE).holds
        assert oracle_report(clo, PropertyName.COMMUTATIVE).holds

    def test_shift_is_not_completely_regular(self):
        clo = clo_of("2 _")
        report = oracle_report(clo, PropertyName.COMPLETELY_REGULAR)
        assert not report.holds
        assert report.witness == {"element": "2 _"}

    def test_swap_generates_a_group(self):
        assert oracle_report(clo_of("2 1"), PropertyName.GROUP).holds

    def test_shift_closure_is_nilpotent_with_zero(self):
        clo = clo_of("2 _")
        for prop in (PropertyName.LEFT_ZERO, PropertyName.RIGHT_ZERO, PropertyName.ZERO):
            assert oracle_report(clo, prop).holds
        report = oracle_report(clo, PropertyName.NILPOTENT)
        assert report.holds
        assert report.witness["zero"] == "_ _"
        assert report.witness["annihilating_length"] == 2
        report = oracle_report(clo_of("2 3 4 5 _"), PropertyName.NILPOTENT)
        assert report.witness == {"zero": "_ _ _ _ _", "annihilating_length": 5}

    def test_group_is_not_nilpotent(self):
        clo = clo_of("2 1")
        assert not oracle_report(clo, PropertyName.ZERO).holds
        assert not oracle_report(clo, PropertyName.NILPOTENT).holds

    def test_group_of_order_two_is_not_r_trivial(self):
        assert not oracle_report(clo_of("2 1"), PropertyName.R_TRIVIAL).holds

    def test_semilattice_is_r_trivial(self):
        assert oracle_report(clo_of("1 _", "_ 2"), PropertyName.R_TRIVIAL).holds

    def test_central_idempotents(self):
        assert oracle_report(clo_of("2 1"), PropertyName.CENTRAL_IDEMPOTENTS).holds
        assert not oracle_report(clo_of("2 1", "1 _"), PropertyName.CENTRAL_IDEMPOTENTS).holds

    def test_shift_not_regular(self):
        report = oracle_report(clo_of("2 _"), PropertyName.REGULAR)
        assert not report.holds
        assert report.witness == {"element": "2 _"}

    def test_inverse_closed_sets_are_regular(self):
        for gens in seeded_generator_sets(201, 15, degrees=(2, 3, 4), inverse_closed=True):
            assert oracle_report(close(gens), PropertyName.REGULAR).holds

    def test_band_iff_semilattice_on_partial_bijections(self):
        for gens in seeded_generator_sets(202, 30, degrees=(2, 3, 4)):
            clo = close(gens)
            assert oracle_report(clo, PropertyName.BAND).holds == oracle_report(
                clo, PropertyName.SEMILATTICE
            ).holds

    def test_clifford_equals_completely_regular(self):
        for gens in seeded_generator_sets(203, 20, degrees=(2, 3)):
            clo = close(gens)
            assert oracle_report(clo, PropertyName.CLIFFORD).holds == oracle_report(
                clo, PropertyName.COMPLETELY_REGULAR
            ).holds


# -- the definitional scans, the references for the early-stopping and
# generator-level ones; they multiply by composing elements, not through
# the byte keys the oracle uses --


def composition(clo):
    """The index of ``clo[i] * clo[j]``, found by composing the two elements."""
    els = list(clo)
    return lambda i, j: clo.index_of(els[i] * els[j])


def naive_first_zero(clo, left, right):
    mul, idx = composition(clo), range(len(clo))
    for z in idx:
        if all((not left or mul(z, s) == z) and (not right or mul(s, z) == z) for s in idx):
            return z
    return None


def naive_zero(left, right):
    def check(clo):
        z = naive_first_zero(clo, left, right)
        return (False, None) if z is None else (True, {"element": clo[z].to_text()})

    return check


def naive_nilpotent(clo):
    """Follow the sets G^t of length-t products for up to N+1 steps."""
    zero = naive_first_zero(clo, True, True)
    if zero is None:
        return False, {"reason": "no zero element"}
    zero_key = clo[zero].to_text()
    current = {clo.index_of(g) for g in clo.generators}
    for length in range(1, len(clo) + 2):
        if current == {zero}:
            return True, {"zero": zero_key, "annihilating_length": length}
        current = {nxt for e in current for nxt in clo.cayley[e]}
    return False, {"zero": zero_key}


def naive_identities(clo, side):
    mul, idx = composition(clo), range(len(clo))
    left = [e for e in idx if all(mul(e, s) == s for s in idx)]
    right = [e for e in idx if all(mul(s, e) == s for s in idx)]
    return {"left": left, "right": right, "two_sided": [e for e in left if e in right]}[side]


def naive_identity(side):
    def check(clo):
        ids = naive_identities(clo, side)
        return (True, {"element": clo[ids[0]].to_text()}) if ids else (False, None)

    return check


def naive_group(clo):
    """One idempotent, an identity for every element, an inverse for every element."""
    mul, idx = composition(clo), range(len(clo))
    idems = [e for e in idx if mul(e, e) == e]
    if len(idems) != 1:
        return False, {"idempotents": [clo[e].to_text() for e in idems[:2]]}
    e = idems[0]
    for s in idx:
        if mul(e, s) != s or mul(s, e) != s:
            return False, {"not_identity_on": clo[s].to_text()}
    for s in idx:
        if not any(mul(s, t) == e and mul(t, s) == e for t in idx):
            return False, {"no_inverse": clo[s].to_text()}
    return True, None


def naive_central_idempotents(clo):
    mul, idx = composition(clo), range(len(clo))
    for e in idx:
        if mul(e, e) != e:
            continue
        for s in idx:
            if mul(e, s) != mul(s, e):
                return False, {"idempotent": clo[e].to_text(), "element": clo[s].to_text()}
    return True, None


def naive_commutative(clo):
    """Every pair a < b of elements."""
    mul, n = composition(clo), len(clo)
    for a in range(n):
        for b in range(a + 1, n):
            if mul(a, b) != mul(b, a):
                return False, {"left": clo[a].to_text(), "right": clo[b].to_text()}
    return True, None


def naive_band(clo):
    mul = composition(clo)
    for a in range(len(clo)):
        if mul(a, a) != a:
            return False, {"element": clo[a].to_text()}
    return True, None


def naive_semilattice(clo):
    ok, witness = naive_band(clo)
    return naive_commutative(clo) if ok else (ok, witness)


def naive_completely_regular(clo):
    """Each s lies in a subgroup of I_n iff ss⁻¹ = s⁻¹s, that is, dom(s) =
    image(s), read off the composed elements; that subgroup is generated by
    s, so it lies in S."""
    for s in clo:
        inv = s.inverse()
        if s * inv != inv * s:
            return False, {"element": s.to_text()}
    return True, None


def naive_clifford(clo):
    """Completely regular with central idempotents.  Here S is then inverse
    (each s⁻¹ lies in the subgroup of s), and a completely regular inverse
    semigroup has central idempotents, so the second test must pass."""
    ok, witness = naive_completely_regular(clo)
    return naive_central_idempotents(clo) if ok else (ok, witness)


def naive_regular(clo):
    """Search every t for sts = s."""
    mul, idx = composition(clo), range(len(clo))
    for s in idx:
        if not any(mul(mul(s, t), s) == s for t in idx):
            return False, {"element": clo[s].to_text()}
    return True, None


def naive_r_trivial(clo):
    """Each element's whole right ideal sS¹, by a DFS over its products with
    the generators; two elements with one ideal are R-related."""
    mul = composition(clo)
    gens = [clo.index_of(g) for g in clo.generators]
    ideals = {}
    for i in range(len(clo)):
        seen, stack = {i}, [i]
        while stack:
            cur = stack.pop()
            for g in gens:
                nxt = mul(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        first = ideals.setdefault(frozenset(seen), i)
        if first != i:
            return False, {"first": clo[first].to_text(), "second": clo[i].to_text()}
    return True, None


NAIVE = {
    PropertyName.COMMUTATIVE: naive_commutative,
    PropertyName.SEMILATTICE: naive_semilattice,
    PropertyName.BAND: naive_band,
    PropertyName.COMPLETELY_REGULAR: naive_completely_regular,
    PropertyName.CLIFFORD: naive_clifford,
    PropertyName.LEFT_ZERO: naive_zero(True, False),
    PropertyName.RIGHT_ZERO: naive_zero(False, True),
    PropertyName.ZERO: naive_zero(True, True),
    PropertyName.NILPOTENT: naive_nilpotent,
    PropertyName.GROUP: naive_group,
    PropertyName.CENTRAL_IDEMPOTENTS: naive_central_idempotents,
    PropertyName.LEFT_IDENTITY: naive_identity("left"),
    PropertyName.RIGHT_IDENTITY: naive_identity("right"),
    PropertyName.TWO_SIDED_IDENTITY: naive_identity("two_sided"),
    PropertyName.REGULAR: naive_regular,
    PropertyName.R_TRIVIAL: naive_r_trivial,
}


def block_cycles(degree, lengths):
    """Cycles of the given lengths, each defined only on its own block of points."""
    texts, start = [], 0
    for length in lengths:
        images = ["_"] * degree
        for x in range(start, start + length):
            images[x] = str(start + (x - start + 1) % length + 1)
        texts.append(" ".join(images))
        start += length
    return texts


class TestEarlyStoppingScans:
    @pytest.mark.parametrize("inverse_closed", [False, True])
    def test_reports_match_the_definitional_scans(self, inverse_closed):
        sets = seeded_generator_sets(207, 120, degrees=(1, 2, 3, 4, 5),
                                     inverse_closed=inverse_closed)
        sets += [GeneratorSet.from_elements([pb(t) for t in texts]) for texts in (
            ("2 3 4 5 _",), ("1 _", "_ _"), ("2 _",), ("1 2",), ("2 1", "1 _"),
            ("_ _",), ("2 3 1",), block_cycles(17, (2, 3, 5, 7)),
            # a repeated generator: k = 3 listed, k' = 2 distinct
            ("1 _", "1 _", "2 1"), ("2 1 3", "2 1 3", "1 3 2"),
            # the first generator is regular, the second is not
            ("2 1 3", "_ _ 1"),
            # the zero, 1 _ _, is neither a generator nor the empty map
            ("1 2 _", "1 _ 3"),
        )]
        outcomes = set()
        for gens in sets:
            clo = close(gens)
            for prop, naive in NAIVE.items():
                report = oracle_report(clo, prop)
                assert (report.holds, report.witness) == naive(clo), (prop, gens)
                outcomes.add((prop, report.holds))
            ids = oracle_identities(clo)
            for side in ("left", "right", "two_sided"):
                got = [clo.index_of(e) for e in getattr(ids, side)]
                assert got == naive_identities(clo, side), (side, gens)
        assert len(outcomes) == 2 * len(NAIVE), outcomes

    def test_block_cycles_are_rejected_without_walking_their_period(self):
        # cycles of lengths 2, 3, 5 and 7 on disjoint blocks: G^t = {a^t, b^t, c^t, d^t, 0}
        # first repeats after lcm = 210 steps, far beyond the N + 1 = 19 the scan may take
        clo = clo_of(*block_cycles(17, (2, 3, 5, 7)))
        assert len(clo) == 18
        clo.cayley = rows = CountingRows(clo.cayley)
        assert oracle_report(clo, PropertyName.ZERO).holds
        zero_reads = rows.reads
        report = oracle_report(clo, PropertyName.NILPOTENT)
        assert not report.holds
        assert report.witness == {"zero": " ".join("_" * 17)}
        # beyond the zero scan: N + 1 steps of at most N rows
        assert rows.reads - 2 * zero_reads <= (len(clo) + 1) * len(clo)

    def test_r_trivial_walks_each_ideal_at_its_own_rank(self):
        # R-related elements share a domain, and the elements of the
        # co-singleton semilattice, partial identities, have pairwise
        # distinct domains: no element is walked and no row is read, where
        # walking every whole right ideal reads 3^12 - 2^12 = 527,345 rows
        n = 12
        clo = close(GeneratorSet.from_elements([
            PartialBijection([None if x == k else x for x in range(n)]) for k in range(n)
        ]))
        assert len(clo) == 2**n - 1
        clo.cayley = rows = CountingRows(clo.cayley)
        assert oracle_report(clo, PropertyName.R_TRIVIAL).holds
        assert rows.reads == 0

    def test_r_trivial_where_domains_repeat(self):
        # the elements that share a domain are the only ones walked, each
        # tested against the earlier ones with its domain
        outcomes = {True: 0, False: 0}
        for gens in seeded_generator_sets(36, 300, degrees=(3, 4, 5), max_k=4):
            clo = close(gens)
            domains = [el.dom() for el in clo]
            if len(clo) > 150 or len(set(domains)) == len(domains):
                continue
            report = oracle_report(clo, PropertyName.R_TRIVIAL)
            assert (report.holds, report.witness) == naive_r_trivial(clo), gens
            outcomes[report.holds] += 1
        assert min(outcomes.values()) >= 10, outcomes


class CountingRows(list):
    """A Cayley table that counts the rows read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class TestIdentities:
    def test_identity_generator(self):
        ids = oracle_identities(clo_of("1 2"))
        assert ids.left == ids.right == ids.two_sided == (PartialBijection.identity(2),)

    def test_shift_has_none(self):
        ids = oracle_identities(clo_of("2 _"))
        assert ids.left == ids.right == ids.two_sided == ()

    def test_two_partial_identities_have_none(self):
        # id_{1} * id_{2} is empty, so neither acts as an identity
        ids = oracle_identities(clo_of("1 _", "_ 2"))
        assert ids.left == () and ids.right == () and ids.two_sided == ()

    def test_at_most_one_left_and_right(self):
        for gens in seeded_generator_sets(204, 40, degrees=(2, 3, 4)):
            ids = oracle_identities(close(gens))
            assert len(ids.left) <= 1 and len(ids.right) <= 1
            assert bool(ids.two_sided) == (bool(ids.left) and bool(ids.right))


class TestOracleModels:
    def test_reflexive_identity_always_models(self):
        ident = parse_identity("x1 = x1")
        for gens in seeded_generator_sets(205, 10, degrees=(2, 3), inverse_closed=True):
            assert oracle_models(gens, ident).models

    def test_shift_fails_inverse_commutation(self):
        gens = GeneratorSet.from_elements([pb("2 _")])
        res = oracle_models(gens, parse_identity("x1 x1^-1 = x1^-1 x1"))
        assert not res.models
        assert res.assignment == (pb("2 _"),)
        (s,) = res.assignment
        assert s * s.inverse() == pb("1 _") and s.inverse() * s == pb("_ 2")

    def test_partial_identities_commute(self):
        gens = GeneratorSet.from_elements([pb("1 _"), pb("_ 2")])
        assert oracle_models(gens, parse_identity("x1 x2 = x2 x1")).models

    def test_premise_restricts_to_idempotents(self):
        # swap is non-commutative with id_{1} but the premise excludes it
        gens = GeneratorSet.from_elements([pb("2 1"), pb("1 _")])
        assert not oracle_models(gens, parse_identity("x1 x2 = x2 x1")).models
        assert oracle_models(
            gens, parse_identity("x1=x1^2, x2=x2^2 => x1 x2 = x2 x1")
        ).models

    def test_assignment_space_over_budget_is_refused(self):
        # the co-singleton semilattice of degree 8: 255**3 assignments
        gens = GeneratorSet.from_elements([
            PartialBijection([None if x == k else x for x in range(8)]) for k in range(8)
        ])
        with pytest.raises(LimitExceeded) as info:
            oracle_models(gens, parse_identity("x1 x2 x3 = x3 x2 x1"))
        assert (info.value.limit, info.value.count) == (DEFAULT_BUDGET, 255**3)

    def test_violating_assignment_replays(self):
        ident = parse_identity("x1 x2 = x2 x1")
        for gens in seeded_generator_sets(206, 20, degrees=(2, 3), inverse_closed=True):
            res = oracle_models(gens, ident)
            if not res.models:
                left = apply_assignment(ident.lhs, res.assignment)
                right = apply_assignment(ident.rhs, res.assignment)
                assert left != right
