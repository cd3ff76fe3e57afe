import pytest

from pbsg import (
    CheckReport,
    PartialBijection,
    PropertyName,
    all_partial_bijections,
    check_band_semilattice,
    check_clifford,
    check_commutative,
    check_completely_regular,
    check_left_identity_exists,
    check_right_identity_exists,
    close,
    enumerate_identities,
    oracle_identities,
    oracle_report,
    run_generator_check,
)

from conftest import gens_of, pb, seeded_generator_sets


def gset(*texts):
    return gens_of([pb(t) for t in texts])


class TestIdentityExistence:
    def test_identity_generator(self):
        rep = check_left_identity_exists(gset("1 2"))
        assert rep.holds and rep.witness["identity"] == PartialBijection.identity(2)
        assert check_right_identity_exists(gset("1 2")).holds

    def test_swap_has_identity(self):
        rep = check_left_identity_exists(gset("2 1"))
        assert rep.holds
        assert rep.witness == {"generator": 1, "identity": PartialBijection.identity(2)}
        assert check_right_identity_exists(gset("2 1")).holds

    def test_shift_has_none(self):
        assert not check_left_identity_exists(gset("2 _")).holds
        assert not check_right_identity_exists(gset("2 _")).holds

    def test_witness_is_a_left_identity_in_the_closure(self):
        for gens in seeded_generator_sets(301, 60, degrees=(2, 3, 4)):
            rep = check_left_identity_exists(gens)
            if rep.holds:
                ell = rep.witness["identity"]
                assert all(ell * s == s for s in close(gens))
            rep = check_right_identity_exists(gens)
            if rep.holds:
                r = rep.witness["identity"]
                assert all(s * r == s for s in close(gens))


class TestEnumerateIdentities:
    def test_partial_identity_generator(self):
        e = PartialBijection.partial_identity(3, [0, 1])
        assert enumerate_identities(gens_of([e])) == (e, e)

    def test_shift_has_none(self):
        assert enumerate_identities(gset("2 _")) == (None, None)

    def test_matches_oracle(self):
        for gens in seeded_generator_sets(302, 60, degrees=(2, 3)):
            assert enumerate_identities(gens) == oracle_identities(close(gens))

    def test_constructed_element_is_union_partial_identity(self):
        gens = gset("2 1", "1 _")
        left, _ = enumerate_identities(gens)
        assert left == PartialBijection.identity(2)
        assert left == oracle_identities(close(gens))[0]

    def test_every_small_set_matches_oracle(self):
        # every 1- and 2-generator set of degree <= 3: 2 + 7 + 34 one-generator
        # sets and 2^2 + 7^2 + 34^2 ordered pairs
        count = 0
        for n in (1, 2, 3):
            universe = all_partial_bijections(n)
            sets = [(a,) for a in universe] + [(a, b) for a in universe for b in universe]
            for generators in sets:
                gens = gens_of(generators)
                ids = enumerate_identities(gens)
                assert ids == oracle_identities(close(gens))
                for check, found in zip((check_left_identity_exists,
                                         check_right_identity_exists), ids):
                    rep = check(gens)
                    assert rep.holds == (found is not None)
                    if rep.holds:
                        a = generators[rep.witness["generator"] - 1]
                        assert a.idempotent_power() == rep.witness["identity"] == found
                count += 1
        assert count == 1252


class TestCompletelyRegular:
    def test_permutations_hold(self):
        assert check_completely_regular(gset("2 3 1", "1 3 2")).holds

    def test_shift_fails_on_the_diagonal(self):
        rep = check_completely_regular(gset("2 _"))
        assert not rep.holds
        # dom(a*a) is empty while dom(a) is {1}: point 1 witnesses the gap
        assert rep.witness == {"i": 1, "j": 1, "point": 1}

    def test_matches_oracle(self):
        for gens in seeded_generator_sets(303, 80, degrees=(2, 3, 4)):
            want = oracle_report(close(gens), PropertyName.COMPLETELY_REGULAR).holds
            assert check_completely_regular(gens).holds == want
            assert check_clifford(gens).holds == want

    def test_holding_forces_dom_equals_image_everywhere(self):
        import random

        rng = random.Random(304)
        found = 0
        while found < 30:
            n = rng.choice([2, 3, 4])
            k = rng.randint(1, 3)
            gens = []
            for _ in range(k):
                size = rng.randint(0, n)
                dom = sorted(rng.sample(range(n), size))
                img = dict(zip(dom, rng.sample(dom, size)))
                gens.append(PartialBijection([img.get(x) for x in range(n)]))
            gset_ = gens_of(gens)
            if not check_completely_regular(gset_).holds:
                continue
            found += 1
            for s in close(gset_):
                assert s.dom() == s.image()


class TestBandSemilattice:
    def test_partial_identities(self):
        gens = gens_of(
            [PartialBijection.partial_identity(3, [0]),
             PartialBijection.partial_identity(3, [1, 2])]
        )
        assert check_band_semilattice(gens).holds

    def test_swap_fails(self):
        rep = check_band_semilattice(gset("2 1"))
        assert not rep.holds
        assert rep.witness == {"generator": 1, "point": 1}

    def test_matches_oracle(self):
        for gens in seeded_generator_sets(305, 80, degrees=(2, 3, 4)):
            clo = close(gens)
            assert check_band_semilattice(gens).holds == oracle_report(
                clo, PropertyName.SEMILATTICE
            ).holds


class TestCommutative:
    def test_single_generator(self):
        assert check_commutative(gset("2 3 _")).holds

    def test_swap_with_partial_identity(self):
        rep = check_commutative(gset("2 1", "1 _"))
        assert not rep.holds
        assert rep.witness["i"] == 1 and rep.witness["j"] == 2

    def test_matches_oracle(self):
        for gens in seeded_generator_sets(306, 80, degrees=(2, 3, 4)):
            assert check_commutative(gens).holds == oracle_report(
                close(gens), PropertyName.COMMUTATIVE
            ).holds


class TestExhaustiveDegreeTwo:
    def test_all_pairs_agree_with_oracle(self):
        i2 = all_partial_bijections(2)
        assert len(i2) == 7
        for a in i2:
            for b in i2:
                gens = gens_of([a, b])
                clo = close(gens)
                ids = left, right = oracle_identities(clo)
                assert check_left_identity_exists(gens).holds == (left is not None)
                assert check_right_identity_exists(gens).holds == (right is not None)
                assert enumerate_identities(gens) == ids
                assert check_completely_regular(gens).holds == oracle_report(
                    clo, PropertyName.COMPLETELY_REGULAR
                ).holds
                assert check_band_semilattice(gens).holds == oracle_report(
                    clo, PropertyName.SEMILATTICE
                ).holds
                assert check_commutative(gens).holds == oracle_report(
                    clo, PropertyName.COMMUTATIVE
                ).holds


class TestDispatcher:
    def test_checkable_properties_return_reports(self):
        gens = gset("2 1")
        for prop in (
            PropertyName.COMMUTATIVE,
            PropertyName.BAND,
            PropertyName.SEMILATTICE,
            PropertyName.COMPLETELY_REGULAR,
            PropertyName.CLIFFORD,
            PropertyName.LEFT_IDENTITY,
            PropertyName.RIGHT_IDENTITY,
            PropertyName.TWO_SIDED_IDENTITY,
        ):
            assert isinstance(run_generator_check(gens, prop), CheckReport)

    def test_oracle_only_properties_return_none(self):
        gens = gset("2 1")
        for prop in (PropertyName.GROUP, PropertyName.NILPOTENT, PropertyName.REGULAR):
            assert run_generator_check(gens, prop) is None

    def test_two_sided_report(self):
        rep = run_generator_check(gset("2 1"), PropertyName.TWO_SIDED_IDENTITY)
        assert rep.holds and rep.witness["identity"] == PartialBijection.identity(2)

    def test_report_witness_must_be_a_dict(self):
        for witness in ([1, 2], "element", PartialBijection.identity(2)):
            with pytest.raises(TypeError, match="witness must be a dict or None"):
                CheckReport(True, witness)


class TestPairedProperties:
    """Properties that are one decision for partial bijections give one
    report, verdict and witness alike, under each of their names."""

    FAST_PAIRS = ((PropertyName.BAND, PropertyName.SEMILATTICE),
                  (PropertyName.COMPLETELY_REGULAR, PropertyName.CLIFFORD))
    ORACLE_GROUPS = FAST_PAIRS + (
        (PropertyName.LEFT_ZERO, PropertyName.RIGHT_ZERO, PropertyName.ZERO),)

    @staticmethod
    def outcomes(report_of, groups):
        """Check each group's reports are equal; the verdicts seen per group."""
        seen = {group: set() for group in groups}
        for gens in seeded_generator_sets(307, 120, degrees=(1, 2, 3)):
            for group in groups:
                reports = [report_of(gens, prop) for prop in group]
                first = (reports[0].holds, reports[0].witness)
                assert all((r.holds, r.witness) == first for r in reports), (group, gens)
                seen[group].add(first[0])
        return seen

    def test_generator_checks(self):
        seen = self.outcomes(run_generator_check, self.FAST_PAIRS)
        assert all(verdicts == {True, False} for verdicts in seen.values()), seen

    def test_oracle_reports(self):
        seen = self.outcomes(lambda gens, prop: oracle_report(close(gens), prop),
                             self.ORACLE_GROUPS)
        assert all(verdicts == {True, False} for verdicts in seen.values()), seen


# -- the generator-level checks written with PartialBijection products, the
# references that pin the checkers' witnesses --


def product_domain_intersection(gens):
    for i, a in enumerate(gens.generators):
        for j, b in enumerate(gens.generators):
            got, want = (a * b).dom(), a.dom() & b.dom()
            if got != want:
                return False, {"i": i + 1, "j": j + 1, "point": min(got ^ want) + 1}
    return True, None


def product_commutative(gens):
    gs = gens.generators
    for i in range(len(gs)):
        for j in range(i + 1, len(gs)):
            ab, ba = gs[i] * gs[j], gs[j] * gs[i]
            if ab != ba:
                point = min(x for x in range(gens.degree) if ab.entries[x] != ba.entries[x])
                return False, {"i": i + 1, "j": j + 1, "point": point + 1}
    return True, None


def product_band(gens):
    """An idempotent partial bijection a = a*a fixes its domain, and a*a
    differs from a exactly at the points of dom(a) that a moves."""
    for i, a in enumerate(gens.generators):
        aa = a * a
        if aa != a:
            point = min(x for x in range(gens.degree) if aa.entries[x] != a.entries[x])
            return False, {"generator": i + 1, "point": point + 1}
    return True, None


def product_identity(gens, side):
    """The first generator whose idempotent power (found by squaring) fixes
    every generator on that side."""
    gs = gens.generators
    for i, a in enumerate(gs):
        e = a.idempotent_power()
        if all((e * g if side == "left" else g * e) == g for g in gs):
            return True, {"generator": i + 1, "identity": e}
    return False, None


def product_two_sided(gens):
    left, right = product_identity(gens, "left"), product_identity(gens, "right")
    if left[0] and right[0] and left[1]["identity"] == right[1]["identity"]:
        return True, {"identity": left[1]["identity"]}
    return False, None


PRODUCT_CHECKS = {
    PropertyName.COMPLETELY_REGULAR: product_domain_intersection,
    PropertyName.CLIFFORD: product_domain_intersection,
    PropertyName.COMMUTATIVE: product_commutative,
    PropertyName.BAND: product_band,
    PropertyName.SEMILATTICE: product_band,
    PropertyName.LEFT_IDENTITY: lambda gens: product_identity(gens, "left"),
    PropertyName.RIGHT_IDENTITY: lambda gens: product_identity(gens, "right"),
    PropertyName.TWO_SIDED_IDENTITY: product_two_sided,
}


class TestWitnessesMatchProducts:
    @pytest.mark.parametrize("inverse_closed", [False, True])
    def test_reports_match_the_product_references(self, inverse_closed):
        sets = seeded_generator_sets(307, 300, degrees=(1, 2, 3, 4, 5, 6), max_k=4,
                                     inverse_closed=inverse_closed)
        # repeated generators: the pair (i, j) with i = j of a repeat
        sets += [gset("2 1 _", "2 1 _", "1 _ 3"), gset("2 3 1", "2 3 1"),
                 gset("1 _", "1 _"), gset("_ 1", "_ 1", "1 2")]
        outcomes = set()
        for gens in sets:
            for prop, reference in PRODUCT_CHECKS.items():
                rep = run_generator_check(gens, prop)
                assert (rep.holds, rep.witness) == reference(gens), (prop, gens)
                outcomes.add((prop, rep.holds))
        assert len(outcomes) == 2 * len(PRODUCT_CHECKS), outcomes
