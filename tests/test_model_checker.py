import random
from collections import deque
from itertools import product

import pytest

from pbsg import (
    DEFAULT_BUDGET,
    BoundaryGuess,
    GeneratorSet,
    Identity,
    LimitExceeded,
    PartialBijection,
    check_variable_run,
    model_checker,
    models,
    oracle_models,
    parse_identity,
)
from pbsg.checkers import check_commutative
from pbsg.closure import _keys, _tables
from pbsg.model_checker import (_EMPTY, _Occurrences, _Work, _in_class, _masked_word, _offer,
                                _reduce, _run_word, counterexample_values)
from pbsg.sampling import random_generator_set

from conftest import MODEL_CORPUS, conjugate, gens_of, load_script, pb, seeded_generator_sets


def gset(*texts, closed=True):
    g = gens_of([pb(t) for t in texts])
    return g.with_inverses() if closed else g


FOUR_REVERSAL = "x1 x2 x3 x4 = x4 x3 x2 x1"


def walk(gens, ident, budget=DEFAULT_BUDGET):
    """The boundary walk alone, without the law and class tests that
    ``models`` runs before it, so that identities they decide exercise the
    walk too."""
    gens = gens.with_inverses()
    return model_checker._walk(gens, _tables(_keys(gens)), ident, budget)


def cosingleton_semilattice(n, dropped=None):
    """The partial identities missing one point each: a commutative semilattice.
    ``dropped`` limits the generators to those missing a point in it."""
    return gens_of([
        PartialBijection([None if x == k else x for x in range(n)])
        for k in (range(n) if dropped is None else dropped)
    ])


def unclassed_semilattice(n):
    """The co-singleton semilattice and the map sending only the last point to
    the one before it.  That map's square is undefined everywhere, so the
    inverse hull lies in none of the classes (semilattice, groups,
    commutative, Clifford) whose identities ``models`` decides before its
    walk."""
    extra = [None] * n
    extra[n - 1] = n - 2
    return gens_of([*cosingleton_semilattice(n).generators, PartialBijection(extra)])


def symmetric_group(n):
    """S_n, generated by the n-cycle and the transposition of the first two points."""
    return gens_of([
        PartialBijection([(x + 1) % n for x in range(n)]),
        PartialBijection([1, 0, *range(2, n)]),
    ])


def cycle(n):
    """The n-cycle."""
    return gens_of([PartialBijection([(x + 1) % n for x in range(n)])])


class TestModels:
    # laws: models answers them before any walk, and the walk agrees
    def test_reflexive_identity(self):
        ident = parse_identity("x1 = x1")
        for gens in seeded_generator_sets(401, 10, degrees=(2, 3), inverse_closed=True):
            assert models(gens, ident).models and walk(gens, ident).models

    def test_inverse_law_models_everywhere(self):
        ident = parse_identity("x1 x1^-1 x1 = x1")
        for gens in seeded_generator_sets(402, 25, degrees=(2, 3, 4), inverse_closed=True):
            assert models(gens, ident).models and walk(gens, ident).models

    def test_idempotent_premise_identity_models_everywhere(self):
        ident = parse_identity("x1=x1^2 => x1 x1 = x1")
        for gens in seeded_generator_sets(403, 25, degrees=(2, 3), inverse_closed=True):
            assert models(gens, ident).models and walk(gens, ident).models

    def test_shift_fails_inverse_commutation(self):
        # a definedness-only disagreement: the counterexample needs the sink
        gens = gset("2 _")
        ident = parse_identity("x1 x1^-1 = x1^-1 x1")
        result = models(gens, ident)
        assert not result.models
        assert not oracle_models(gens, ident).models
        assignment, lhs, rhs = counterexample_values(result.generators, ident,
                                                     result.counterexample)
        assert lhs != rhs
        # the realized element separates its domain from its image
        (s,) = assignment
        assert s * s.inverse() == lhs and s.inverse() * s == rhs
        assert s.dom() != s.image()

    def test_counterexample_boundary_shows_definedness_split(self):
        # the lhs survives at the start point while the rhs dies
        result = models(gset("2 _"), parse_identity("x1 x1^-1 = x1^-1 x1"))
        boundary = result.counterexample.boundary
        n = result.generators.degree
        assert boundary.p[0] == boundary.q[0] != n
        assert boundary.p[-1] != boundary.q[-1]

    def test_commuting_partial_identities(self):
        assert models(gset("1 _", "_ 2"), parse_identity("x1 x2 = x2 x1")).models
        # two non-commuting permutations disagree at a real point
        assert not models(gset("2 3 1", "2 1 3"), parse_identity("x1 x2 = x2 x1")).models

    def test_deterministic(self):
        gens = gset("2 _ 1", "_ 3 _")
        ident = parse_identity("x1 x2 = x2 x1")
        a = models(gens, ident)
        b = models(gens, ident)
        assert a == b

    def test_inverses_appended_automatically(self):
        open_set = gset("2 _", closed=False)
        result = models(open_set, parse_identity("x1 x1^-1 = x1^-1 x1"))
        assert not result.models
        assert result.generators.inverse_closed
        assert len(result.generators.generators) == 2

    def test_budget_overflow(self):
        with pytest.raises(LimitExceeded) as info:
            models(gset("2 _"), parse_identity("x1 x2 = x2 x1"), budget=10)
        assert info.value.limit == 10 and info.value.count > 10

    def test_variable_absent_from_both_words_gets_a_word(self):
        # x1 is a premise variable that neither word reads; its empty spec
        # is met by the first letter, and the counterexample must carry it
        ident = parse_identity("x3=x3^2 => x1 x2 = x2 x1")
        result = models(gset("2 3 1", "2 1 3"), ident)
        assert not result.models
        words = result.counterexample.words
        assert len(words) == 3 and all(words)
        assert words[0] == (0,)
        _, lhs, rhs = counterexample_values(result.generators, ident, result.counterexample)
        assert lhs != rhs

    def test_three_variable_identity_at_degree_8(self):
        # pruning keeps the search far below its 8 * 9**6 boundaries
        assert walk(cosingleton_semilattice(8), parse_identity("x1 x2 x3 = x3 x2 x1")).models

    def test_four_variable_reversal_at_degree_6(self):
        assert walk(cosingleton_semilattice(6), parse_identity(FOUR_REVERSAL)).models


class TestWorkBudget:
    """The budget counts boundary choices expanded plus reach states, so an
    identity with a boundary space far over the budget still decides when
    the search itself is small, and a search that outgrows it is stopped."""

    @pytest.mark.parametrize("n", (6, 7))
    def test_symmetric_group_fails_four_variable_reversal(self, n):
        # n * (n+1)**8 boundaries; the least counterexample comes early
        ident = parse_identity(FOUR_REVERSAL)
        result = models(symmetric_group(n), ident)
        assert not result.models
        _, lhs, rhs = counterexample_values(result.generators, ident, result.counterexample)
        assert lhs != rhs

    def test_commutative_semilattice_models_four_variable_reversal(self):
        # the walk decides it; models answers it from the commutative class
        gens, ident = cosingleton_semilattice(7), parse_identity(FOUR_REVERSAL)
        assert check_commutative(gens).holds
        assert walk(gens, ident).models
        assert models(gens, ident, budget=1).models

    def test_search_past_the_budget_overflows(self):
        # the degree-7 reversal charges 312 units up to its least
        # counterexample, which starts at the second-to-last point
        with pytest.raises(LimitExceeded) as info:
            models(unclassed_semilattice(7), parse_identity(FOUR_REVERSAL), budget=300)
        assert info.value.limit == 300 and info.value.count == 305
        assert str(info.value) == "model checking work exceeds the budget 300"

    def test_masked_search_past_the_budget_overflows(self):
        # every generator keeps point 1, so no word leaves point 1 out of
        # its image, as x2 must at p = 1 1 _ _, q = 1 1.  No bind rule sees
        # that, so the masked search walks the 2^15 images the generators
        # reach before it could answer None: such an unsatisfiable exclusion
        # stays exponential in the degree.  The search is charged one unit
        # per (slots, image) state and stops within one expansion past the
        # budget: three states past it here
        gens = cosingleton_semilattice(16, dropped=range(1, 16))
        with pytest.raises(LimitExceeded) as info:
            models(gens, parse_identity("x1 x2^-1 x1 = x1"), budget=20_000)
        assert info.value.limit == 20_000 and info.value.count == 20_003

    def test_contradictory_exclusions_are_rejected_at_bind(self):
        # p = a b _ asks x1 to send a to b and, through x1^-1 sent to the
        # sink, to leave b out of its image, which the bind rule rejects
        # without a search: the walk charges 140 units here, while answering
        # each such query from its full 2^14-state masked reach charges
        # 230,692.  The identity is a law, so models itself charges nothing
        gens = cosingleton_semilattice(14)
        assert walk(gens, parse_identity("x1 x1^-1 x1 = x1"), budget=140).models
        with pytest.raises(LimitExceeded):
            walk(gens, parse_identity("x1 x1^-1 x1 = x1"), budget=139)

    def test_masked_search_stops_at_the_goal(self):
        # at p = 1 1 _ _, q = 1 1, x2 of x1 x2^-1 x1 = x1 asks only that
        # point 1 leave its image, which one letter does: 11 units are
        # charged here, the one-state masked search counted once, in the
        # walk, which keeps its word as x2's, while the whole masked reach
        # over the 2^18 - 1 images is 262,143 states.  The rest is the reach
        # of point 1 (itself and the sink), which both x1's forward edge and
        # x2's inverse one are offered, and the forced points
        gens, ident = cosingleton_semilattice(18), parse_identity("x1 x2^-1 x1 = x1")
        result = models(gens, ident, budget=11)
        assert not result.models
        cex = result.counterexample
        assert cex.boundary == BoundaryGuess((0, 0, 18, 18), (0, 0))
        assert cex.words == ((1,), (0,))
        with pytest.raises(LimitExceeded):
            models(gens, ident, budget=10)

    def test_partial_queries_prune_before_a_variable_is_due(self):
        # x1 is due only at the last position, but each variable's bound
        # occurrences are checked as they are bound, and as every edge is
        # forward, each unforced position is offered only the end points its
        # variable's reach admits: 896 units are charged here, while
        # offering every point and querying each one charges 3,297, and
        # querying each variable only at its last position more than 10**7
        gens, ident = cosingleton_semilattice(16), parse_identity(FOUR_REVERSAL)
        assert walk(gens, ident, budget=896).models
        with pytest.raises(LimitExceeded):
            walk(gens, ident, budget=895)

    def test_conflicting_points_are_rejected_before_expansion(self):
        # x1 x1^-1 x1 = x1 reads every position; binding each occurrence as
        # its end point is fixed rejects most points before the positions
        # below them are expanded and charged: the walk charges 80 here,
        # while the boundaries number 8 * 9**4 = 52,488
        gens = cosingleton_semilattice(8)
        assert walk(gens, parse_identity("x1 x1^-1 x1 = x1"), budget=80).models
        with pytest.raises(LimitExceeded):
            walk(gens, parse_identity("x1 x1^-1 x1 = x1"), budget=79)

    def test_holding_forward_identity_asks_no_query(self, monkeypatch):
        # every edge is forward: each unforced position is offered only the
        # end points its variable's reach admits (a premise variable keeps
        # its start point and the sink among them), which answers its
        # relaxed query, and each forced one binds nothing new.  The
        # identities hold, so no word is spelled either, and no query is
        # asked at all (a walk that queried every forced position and every
        # full one asks 944 for the reversal, and one that offered a premise
        # variable its start point and the sink and queried both asks 30
        # and 34 for the premise identities)
        asked = []
        run_word = model_checker._run_word

        def counting_run_word(*args, **kwargs):
            asked.append(args)
            return run_word(*args, **kwargs)

        monkeypatch.setattr(model_checker, "_run_word", counting_run_word)
        gens = gset("3 1 5 4 2", "_ _ _ _ _", "2 5 1 4 3")
        assert len(gens.generators) == 3  # already inverse-closed
        # (the second is a law, which models decides without a walk)
        for text in ("x1 x2 x3 = x3 x2 x1", "x1=x1^2, x2=x2^2 => x1 x2 = x2 x1",
                     "x1=x1^2 => x1 x2 = x2 x1"):
            assert walk(gens, parse_identity(text)).models, text
            assert len(asked) == 0, text

    def test_budget_is_exact(self, monkeypatch):
        # with C the whole charge of a call that reaches the walk, the result
        # under budget C is the one under 2C, and budget C - 1 overflows
        works = []

        class RecordingWork(_Work):
            __slots__ = ()

            def __init__(self, budget):
                super().__init__(budget)
                works.append(self)

        monkeypatch.setattr(model_checker, "_Work", RecordingWork)
        rng = random.Random(711)
        walked = {True: 0, False: 0, "premises": 0}
        while walked[True] + walked[False] < 250:
            gens = random_generator_set(rng, rng.randint(1, 6), rng.randint(1, 3))
            ident = random_identity(rng)
            works.clear()
            try:
                result = models(gens, ident, budget=20_000)
            except LimitExceeded:
                continue
            if not works:
                continue  # a law or a class answer, charged nothing
            (work,) = works
            charge = work.budget - work.left
            assert charge >= 1
            assert models(gens, ident, budget=charge) == result
            assert models(gens, ident, budget=2 * charge) == result
            with pytest.raises(LimitExceeded):
                models(gens, ident, budget=charge - 1)
            walked[result.models] += 1
            walked["premises"] += ident.num_premises > 0
        assert min(walked.values()) >= 30, walked

    def test_variable_run_is_charged_its_reach_states(self):
        # the 3-cycle's orbit of point 1 is three states
        gens = gset("2 3 1")
        ident = parse_identity("x1 = x1")
        boundary = BoundaryGuess((0, 1), (0, 1))
        assert check_variable_run(gens, ident, 1, boundary, budget=3) is not None
        for budget in (1, 2):
            with pytest.raises(LimitExceeded) as info:
                check_variable_run(gens, ident, 1, boundary, budget=budget)
            assert info.value.limit == budget

    def test_spec_without_exclusions_skips_the_image(self):
        # x1 has an inverse occurrence, but none ends at the sink here, so
        # no point is excluded from its image: the plain reach of the start
        # points (0, 2) serves, 13 states, where tracking the image takes 31
        gens = gset("2 3 1", "2 _ 3")
        ident = parse_identity("x1 x1^-1 = x1^-1 x1")
        boundary = BoundaryGuess((0, 1, 0), (0, 2, 0))
        assert check_variable_run(gens, ident, 1, boundary, budget=13) == (0,)


class TestDegreeCap:
    """Reach states hold one byte per point, the sink being the byte n."""

    def test_degree_over_the_cap_is_refused(self):
        gens = cycle(256)
        ident = parse_identity("x1 = x1 x1")
        # a law too, although it needs no walk
        for text in ("x1 = x1 x1", "x1 x1^-1 x1 = x1"):
            with pytest.raises(ValueError, match="255"):
                models(gens, parse_identity(text))
        with pytest.raises(ValueError, match="255"):
            check_variable_run(gens, ident, 1, BoundaryGuess((0, 1, 2), (0, 1)))

    def test_degree_at_the_cap_decides(self):
        gens = cycle(255)
        ident = parse_identity("x1 = x1 x1")
        result = models(gens, ident)
        assert not result.models
        _, lhs, rhs = counterexample_values(result.generators, ident, result.counterexample)
        assert lhs != rhs
        assert check_variable_run(gens, ident, 1, BoundaryGuess((0, 1), (0, 1, 2))) == (0,)
        # the image reach: a permutation's image is every point, so no power
        # of the cycle sends point 1 to the sink under its inverse
        inverse = parse_identity("x1^-1 = x1^-1")
        assert check_variable_run(gens, inverse, 1, BoundaryGuess((0, 255), (0, 255))) is None
        assert check_variable_run(gens, inverse, 1, BoundaryGuess((0, 1), (0, 1))) == (0,) * 254


def munn_tree(word, premises):
    """Reference Munn tree: the set of free-group-reduced prefixes as tuples
    of literals (``-v`` the inverse of ``v``), and the reduced value; a
    premise variable is read as ``y y^-1``."""
    reduced = ()
    prefixes = {reduced}
    for lit in word:
        for letter in ((abs(lit), -abs(lit)) if abs(lit) <= premises else (lit,)):
            if reduced and reduced[-1] == -letter:
                reduced = reduced[:-1]
            else:
                reduced += (letter,)
                prefixes.add(reduced)
    return reduced, prefixes


def random_identity(rng):
    """Up to three variables, words of one to six literals, and for half of
    them a random number of premises."""
    m = rng.randint(1, 3)

    def word():
        return " ".join(f"x{rng.randint(1, m)}" + ("^-1" if rng.random() < 0.5 else "")
                        for _ in range(rng.randint(1, 6)))

    premises = rng.randint(0, m) if rng.random() < 0.5 else 0
    head = ", ".join(f"x{i}=x{i}^2" for i in range(1, premises + 1))
    return parse_identity((head + " => " if head else "") + word() + " = " + word())


class TestLawCheck:
    """``models`` answers laws of every inverse semigroup before the walk."""

    LAWS = (
        "x1 x1^-1 x1 = x1",
        "x1=x1^2, x2=x2^2 => x1 x2 = x2 x1",
        "x1 x1^-1 x2 x2^-1 = x2 x2^-1 x1 x1^-1",
        "x1 x2 x2^-1 x1^-1 x1 x2 = x1 x2",
        "x1=x1^2 => x1^-1 = x1",
    )

    NON_LAWS = (
        "x1 x1^-1 = x1^-1 x1",  # the same reduced value, different trees
        "x1=x1^2 => x1 x2 = x2 x1",
        "x1 = x1 x1",
        "x1 x1^-1 x1 = x1 x1",
    )

    @staticmethod
    def degree_120():
        # a walk would charge far more than a budget of 1
        return gens_of([
            PartialBijection([(x + 1) % 120 for x in range(120)]),
            PartialBijection([None if x < 60 else x for x in range(120)]),
            PartialBijection([x + 1 if x < 119 else None for x in range(120)]),
        ])

    @pytest.mark.parametrize("text", LAWS)
    def test_laws_decide_without_work(self, text):
        gens = self.degree_120()
        ident = parse_identity(text)
        lhs, rhs = _reduce(ident)
        assert lhs == rhs
        result = models(gens, ident, budget=1)
        assert result == model_checker.ModelCheckResult(None, gens.with_inverses())

    def test_laws_build_no_key(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("a key or table was built")

        monkeypatch.setattr(model_checker, "_keys", refuse)
        monkeypatch.setattr(model_checker, "_tables", refuse)
        gens = self.degree_120()
        for text in self.LAWS:
            result = models(gens, parse_identity(text), budget=1)
            assert result == model_checker.ModelCheckResult(None, gens.with_inverses())
        with pytest.raises(RuntimeError, match="a key or table was built"):
            models(gens, parse_identity(self.NON_LAWS[0]), budget=1)

    @pytest.mark.parametrize("text", NON_LAWS)
    def test_non_laws_still_walk(self, text):
        ident = parse_identity(text)
        lhs, rhs = _reduce(ident)
        assert lhs != rhs
        with pytest.raises(LimitExceeded):
            models(unclassed_semilattice(6), ident, budget=1)

    def test_matches_reference_trees(self):
        rng = random.Random(408)
        laws = 0
        for _ in range(3_000):
            ident = random_identity(rng)
            e = ident.num_premises
            expected = munn_tree(ident.lhs, e) == munn_tree(ident.rhs, e)
            lhs, rhs = _reduce(ident)
            assert (lhs == rhs) == expected, str(ident)
            laws += expected
        assert laws > 200

    def test_laws_hold_on_random_sets(self):
        # soundness against the oracle, which knows nothing of the law test
        rng = random.Random(409)
        checked = {False: 0, True: 0}  # by whether the law has no premise
        for _ in range(3_000):
            ident = random_identity(rng)
            lhs, rhs = _reduce(ident)
            if lhs != rhs:
                continue
            for _ in range(3):
                gens = random_generator_set(rng, rng.randint(1, 4), rng.randint(1, 3),
                                            inverse_closed=True)
                try:
                    slow = oracle_models(gens, ident)
                except LimitExceeded:
                    continue
                assert slow.models, (str(ident), gens.to_json_obj())
                assert models(gens, ident).models
                checked[ident.num_premises == 0] += 1
        assert checked[False] > 500 and checked[True] > 100, checked


class TestClassCheck:
    """``models`` answers an identity that holds in a class the inverse hull
    lies in (semilattice, group, abelian group, commutative inverse or
    Clifford) before the walk, and hands every other one to the walk."""

    def test_class_answers_match_walk_and_oracle(self):
        # the sweep's class members and random sets, at degrees up to 6 (a
        # random set lies in a class now and then, and tests a class check
        # that admits too much), and random identities
        sweep = load_script("model_check_sweep")
        rng = random.Random(431)
        kinds = (*sweep.CLASSES, "random")
        answered = dict.fromkeys(kinds, 0)
        for i in range(19_200):
            kind, n, k = kinds[i % len(kinds)], rng.randint(1, 6), rng.randint(1, 3)
            if kind == "random":
                gens = random_generator_set(rng, n, k, inverse_closed=True)
            else:
                gens = sweep.class_generator_set(rng, n, k, kind).with_inverses()
            ident = random_identity(rng)
            keys = _keys(gens)
            lhs, rhs = _reduce(ident)
            if lhs == rhs or not _in_class(keys, _tables(keys), ident, lhs[0] == rhs[0]):
                continue
            assert models(gens, ident, budget=1) == model_checker.ModelCheckResult(None, gens)
            try:
                slow = oracle_models(gens, ident)
                fast = walk(gens, ident, budget=200_000)
            except LimitExceeded:
                continue
            assert slow.models and fast.models, (str(ident), gens.to_json_obj())
            answered[kind] += 1
        assert min(answered.values()) > 100, answered

    @pytest.mark.parametrize("text", ("x1 x2 x3 = x3 x2 x1", "x1 x2 x1^-1 = x2"))
    def test_abelian_group_identities_decide_without_work(self, text):
        # the walk would exhaust every boundary of these, far past the budget
        gens, ident = cycle(48), parse_identity(text)
        result = models(gens, ident, budget=1)
        assert result == model_checker.ModelCheckResult(None, gens.with_inverses())
        with pytest.raises(LimitExceeded):
            walk(gens, ident, budget=10_000)

    def test_identity_outside_the_class_still_walks(self):
        # S_3 is a group but not abelian: commutativity goes to the walk, which
        # ships the same least counterexample as without the class check
        ident = parse_identity("x1 x2 = x2 x1")
        result = models(symmetric_group(3), ident)
        assert result == walk(symmetric_group(3), ident)
        assert result.counterexample == model_checker.Counterexample(
            BoundaryGuess((0, 0, 1), (0, 1, 2)), ((0, 1), (0,)))
        with pytest.raises(LimitExceeded):
            models(symmetric_group(3), ident, budget=1)


class TestCheckVariableRun:
    def test_empty_occurrences_accept_after_one_step(self):
        # a premise variable absent from both words imposes nothing
        ident = parse_identity("x3=x3^2 => x1 x2 = x2 x1")
        gens = gset("2 1")
        boundary = BoundaryGuess((0, 1, 0), (0, 0, 1))
        assert len(check_variable_run(gens, ident, 1, boundary)) == 1

    def test_swap_realizes_squaring_run(self):
        # boundary forcing 1->2, 2->1 and 1->2 with one word: the swap works
        gens = gset("2 1")
        ident = parse_identity("x1 x1 = x1")
        assert check_variable_run(gens, ident, 1, BoundaryGuess((0, 1, 0), (0, 1))) == (0,)

    def test_constrained_variable_needs_idempotent_compatible_run(self):
        # unconstrained: shift realizes 1->2; constrained: no idempotent
        # power of anything maps 1 to 2, so the run must fail
        gens = gset("2 _")
        plain = parse_identity("x1 = x1")
        constrained = parse_identity("x1=x1^2 => x1 = x1")
        boundary = BoundaryGuess((0, 1), (0, 1))
        assert check_variable_run(gens, plain, 1, boundary) is not None
        assert check_variable_run(gens, constrained, 1, boundary) is None

    def test_dead_point_cannot_resurrect(self):
        gens = gset("2 _")
        ident = parse_identity("x1 x1 = x1")
        n = gens.degree
        boundary = BoundaryGuess((0, n, 1), (0, 0))
        assert check_variable_run(gens, ident, 1, boundary) is None

    def test_injectivity_rejects_merging_starts(self):
        # x1 x1 = x1 with p = 1 2 2, q = 1 2: the word must send 1 and 2 to 2
        gens = gset("2 3 1", "1 2 _")
        ident = parse_identity("x1 x1 = x1")
        assert check_variable_run(gens, ident, 1, BoundaryGuess((0, 1, 1), (0, 1))) is None
        # distinct starts may both fall into the sink: x1 of x1 x2 = x2 x1
        # with p = 1 _ _, q = 1 2 _ must lose 1 and 2
        ident = parse_identity("x1 x2 = x2 x1")
        boundary = BoundaryGuess((0, 3, 3), (0, 1, 3))
        assert check_variable_run(gset("_ _ 3"), ident, 1, boundary) == (0,)

    def test_injectivity_rejects_constrained_moves(self):
        # the idempotent power of a realized word fixes every point it keeps,
        # so a constrained 1 -> 2 (tracked as 1 -> 2 and 2 -> 2) cannot run
        gens = gset("2 1")
        boundary = BoundaryGuess((0, 1), (0, 1))
        assert check_variable_run(gens, parse_identity("x1 = x1"), 1, boundary) is not None
        for text in ("x1=x1^2 => x1 = x1", "x1=x1^2 => x1^-1 = x1^-1"):
            assert check_variable_run(gens, parse_identity(text), 1, boundary) is None

    def test_validates_boundary_shape(self):
        gens = gset("2 1")
        ident = parse_identity("x1 = x1")
        with pytest.raises(ValueError):
            check_variable_run(gens, ident, 1, BoundaryGuess((0, 0, 0), (0, 0)))
        with pytest.raises(ValueError):
            check_variable_run(gens, ident, 1, BoundaryGuess((2, 0), (2, 0)))
        for var in (0, 2):
            with pytest.raises(ValueError, match=f"variable x{var} out of range"):
                check_variable_run(gens, ident, var, BoundaryGuess((0, 1), (0, 1)))

    def test_inverse_sent_to_the_sink_excludes_the_image(self):
        # the swap's inverse is defined at point 1, so no value of x1 sends it
        # to the sink
        gens = gset("2 1")
        ident = parse_identity("x1^-1 = x1^-1")
        boundary = BoundaryGuess((0, 2), (0, 2))
        assert check_variable_run(gens, ident, 1, boundary) is None

    @pytest.mark.parametrize("p", ((0, 7, 1), (0, -1, 1), (0, 1, 4)))
    def test_validates_every_point(self, p):
        # points index the image indicator and the letters' tables, so each
        # must be a real point or the sink (the degree, 3 here)
        gens = gset("2 3 1")
        ident = parse_identity("x1 x1 = x1 x2")
        for var in (1, 2):
            with pytest.raises(ValueError):
                check_variable_run(gens, ident, var, BoundaryGuess(p, (0, 1, 2)))
            with pytest.raises(ValueError):
                check_variable_run(gens, ident, var, BoundaryGuess((0, 1, 2), p))


def _run_spec(occ, pts, bottom):
    """Definitional reference for the spec that ``check_variable_run`` binds:
    distinct start points, the end point each must reach, and the image
    exclusions (a set of points) for one variable and flat boundary ``pts``,
    all occurrences read at once; None when no word can realize them."""
    ends = {}
    forbidden = set()
    for i, j, exponent in occ.edges:
        x, y = pts[i], pts[j]
        if x == bottom:
            if y != bottom:
                return None
            continue
        if exponent == -1:
            if y == bottom:
                if not occ.constrained:
                    forbidden.add(x)
                    continue
            else:
                x, y = y, x
        if ends.setdefault(x, y) != y:
            return None
        if occ.constrained and y != bottom and ends.setdefault(y, y) != y:
            return None
    points = tuple(sorted(ends))
    targets = tuple(ends[x] for x in points)
    real = [y for y in targets if y != bottom]
    if len(set(real)) != len(real):
        return None
    return points, targets, frozenset(forbidden)


def naive_least_word(gens, points, targets, forbidden):
    """The shortest, then lexicographically least, nonempty word sending the
    start points to their targets whose value's image avoids ``forbidden``:
    breadth-first over (slot tuple, image set) states, letters in index
    order, so the first state found that satisfies the spec gives the word."""
    n = gens.degree
    acts = [tuple(n if v is None else v for v in g.entries) + (n,) for g in gens.generators]
    seen = set()
    queue = deque([(points, frozenset(range(n)), ())])
    while queue:
        slots, image, word = queue.popleft()
        for c, act in enumerate(acts):
            state = (tuple(act[x] for x in slots), frozenset(act[x] for x in image) - {n})
            if state in seen:
                continue
            seen.add(state)
            if state[0] == targets and not state[1] & forbidden:
                return word + (c,)
            queue.append((*state, word + (c,)))
    return None


def reference_variable_run(gens, ident, var, boundary):
    n = gens.degree
    spec = _run_spec(_Occurrences(ident, var, n), boundary.p + boundary.q[1:], n)
    if spec is None:
        return None, spec
    return naive_least_word(gens, *spec), spec


def reference_occurrences(ident, var):
    """One variable's ``(edges, depth, constrained)``, built per word: the
    left word's literal i runs from position i to i + 1, the right word's
    from l + i to l + i + 1, except its first, which starts at 0; the depth
    is the largest end."""
    l = len(ident.lhs)
    constrained = var <= ident.num_premises
    flat = [(pos, pos + 1, lit) for pos, lit in enumerate(ident.lhs)]
    flat += [(l + pos if pos else 0, l + pos + 1, lit) for pos, lit in enumerate(ident.rhs)]
    edges = tuple((i, j, 1 if constrained else lit // var)
                  for i, j, lit in flat if abs(lit) == var)
    return edges, max((j for _, j, _ in edges), default=0), constrained


class TestOccurrences:
    def test_one_pass_matches_per_word_reference(self):
        rng = random.Random(434)
        idents = [random_identity(rng) for _ in range(3_000)]
        idents.append(parse_identity("x3=x3^2 => x1 x2 = x2 x1"))
        for ident in idents:
            for var in range(1, ident.num_vars + 1):
                occ = _Occurrences(ident, var, 5)
                expected = reference_occurrences(ident, var)
                assert (occ.edges, occ.depth, occ.constrained) == expected, (str(ident), var)
        # the last identity's premise variable (x1 once parsed) occurs nowhere
        premise = _Occurrences(idents[-1], 1, 5)
        assert premise.edges == () and premise.depth == 0 and premise.constrained


class TestSpecBinder:
    def test_binder_matches_whole_spec_reference(self):
        # random boundaries over all points and the sink, so they include
        # sink-then-real traces, premise variables and inverse occurrences
        # sent to the sink (masked runs)
        rng = random.Random(408)
        idents = [parse_identity(t) for t in (
            "x1=x1^2 => x1 x2 = x2 x1",
            "x1=x1^2 => x2 x1 x2^-1 = x2 x2^-1",
            "x1 x1^-1 = x1^-1 x1",
            "x1 x2^-1 x1 = x1",
            "x1 x1 x1 = x1",
            "x1 x2 x3 = x3 x2 x1",
        )]
        seen = {"premise ok": 0, "masked ok": 0, "sink then real": 0, "rejected": 0}
        for gens in seeded_generator_sets(408, 10, degrees=(2, 3), inverse_closed=True):
            n = gens.degree
            for ident in idents:
                l, r = len(ident.lhs), len(ident.rhs)
                for _ in range(25):
                    start = rng.randrange(n)
                    p = (start,) + tuple(rng.randrange(n + 1) for _ in range(l))
                    q = (start,) + tuple(rng.randrange(n + 1) for _ in range(r))
                    boundary = BoundaryGuess(p, q)
                    broken = any(a == n != b for t in (p, q) for a, b in zip(t, t[1:]))
                    for var in range(1, ident.num_vars + 1):
                        word = check_variable_run(gens, ident, var, boundary)
                        expected, spec = reference_variable_run(gens, ident, var, boundary)
                        assert word == expected
                        ok = word is not None
                        seen["rejected"] += spec is None
                        seen["sink then real"] += broken and spec is None
                        seen["premise ok"] += ok and var <= ident.num_premises
                        seen["masked ok"] += ok and spec is not None and bool(spec[2])
        assert all(seen.values()), seen


def _bind(occ, spec, x, y, exponent):
    """``occ.bind``, checking that it leaves ``spec`` as it was and returns
    ``spec`` itself, not an equal copy, when the edge adds nothing."""
    ends, real, forbidden = spec
    before = (dict(ends), dict(real), forbidden)
    bound = occ.bind(spec, x, y, exponent)
    assert spec == before
    assert (bound == spec) == (bound is spec)
    return bound


def literal_exponents(occ):
    """The exponents of ``occ``'s edges as ``_Occurrences`` builds them: a
    premise variable's are all 1, a plain variable's either sign."""
    return (1,) if occ.constrained else (1, -1)


class TestExactNarrowing:
    def test_forced_end_point_is_the_only_one_bind_accepts(self):
        # after a random run of binds, whenever the spec forces an edge's end
        # point (a sink stays the sink, a bound start point keeps its end, an
        # inverse edge from a real end point goes back to that end's start),
        # it is the one point offered, every other point of 0..n (the sink n
        # included) fails to bind, and binding it returns the spec itself;
        # x1 is a premise variable, whose edges are all forward, x2 a plain one
        rng = random.Random(409)
        ident = parse_identity("x1=x1^2 => x1 x2 = x2 x1")
        narrowed = {1: 0, -1: 0}
        for n in (2, 3, 4, 5):
            letters = _tables(_keys(symmetric_group(n)))
            for var in (1, 2):
                for _ in range(40):
                    occ = _Occurrences(ident, var, n)
                    spec = _EMPTY
                    for _ in range(rng.randrange(2 * n)):
                        spec = _bind(occ, spec, rng.randrange(n + 1), rng.randrange(n + 1),
                                     rng.choice(literal_exponents(occ))) or spec
                    ends, real, _ = spec
                    for x, exponent in product(range(n + 1), literal_exponents(occ)):
                        forced = n if x == n else (ends if exponent == 1 else real).get(x)
                        if forced is None:
                            continue
                        narrowed[exponent] += x != n
                        offered = _offer(letters, occ, spec, x, exponent, {}, {}, _Work(10**7))
                        assert tuple(offered) == (forced,), (x, exponent, offered)
                        for y in range(n + 1):
                            bound = _bind(occ, spec, x, y, exponent)
                            if y != forced:
                                assert bound is None, (x, y, exponent)
                            else:
                                assert bound is spec, (x, y, exponent)
        assert all(narrowed.values()), narrowed

    def test_masked_word_matches_naive_search(self):
        # seeded masked specs, most with targets some word reaches from the
        # start points, so both found and missing words are compared
        rng = random.Random(410)
        seen = {"word": 0, "none": 0}
        for gens in seeded_generator_sets(410, 40, degrees=(2, 3, 4), inverse_closed=True):
            n = gens.degree
            letters = _tables(_keys(gens))
            acts = [tuple(n if v is None else v for v in g.entries) + (n,)
                    for g in gens.generators]
            for _ in range(10):
                points = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
                targets = points
                for _ in range(rng.randint(1, 4)):
                    act = rng.choice(acts)
                    targets = tuple(act[x] for x in targets)
                if rng.random() < 0.2:
                    targets = tuple(rng.randrange(n + 1) for _ in points)
                forbidden = frozenset(rng.sample(range(n), rng.randint(1, n)))
                word = _masked_word(letters, bytes(points), bytes(targets), tuple(forbidden),
                                    n, _Work(10**7))
                assert word == naive_least_word(gens, points, targets, forbidden)
                seen["none" if word is None else "word"] += 1
        assert all(seen.values()), seen

    def test_masked_word_leaves_its_letters_unchanged(self):
        # the preimages are the search's own: the caller's tables stay as given
        gens = cosingleton_semilattice(4)
        letters = _tables(_keys(gens))
        given = list(letters)
        word = _masked_word(letters, b"\x00", b"\x00", (1,), 4, _Work(10**7))
        assert word is not None and letters == given


class TestReachChoices:
    def test_offered_points_are_those_that_bind_and_answer(self):
        # after a random run of binds, each unforced forward edge from a real
        # point x is offered distinct points in ascending order, and those of
        # them that bind are exactly the points y of 0..n that bind and whose
        # relaxed query (the naive search, without the image exclusions)
        # finds a word; x1 is a premise variable, offered only x and the
        # sink among them, x2 a plain one
        rng = random.Random(411)
        ident = parse_identity("x1=x1^2 => x1 x2 = x2 x1")
        seen = {"premise": 0, "projected": 0, "sink offered": 0, "none offered": 0}
        for gens in seeded_generator_sets(411, 30, degrees=(2, 3, 4, 5), inverse_closed=True):
            n = gens.degree
            letters = _tables(_keys(gens))
            reach_cache: dict = {}
            index_cache: dict = {}
            for var in (1, 2):
                for _ in range(8):
                    occ = _Occurrences(ident, var, n)
                    spec = _EMPTY
                    for _ in range(rng.randrange(n + 1)):
                        spec = _bind(occ, spec, rng.randrange(n), rng.randrange(n + 1),
                                     rng.choice(literal_exponents(occ))) or spec
                    for x in range(n):
                        if x in spec[0]:
                            continue  # the bound end is forced
                        offered = _offer(letters, occ, spec, x, 1, reach_cache, index_cache,
                                         _Work(10**7))
                        expected, passed = [], []
                        for y in range(n + 1):
                            bound = _bind(occ, spec, x, y, 1)
                            if bound is not None:
                                points = tuple(sorted(bound[0]))
                                targets = tuple(bound[0][p] for p in points)
                                if naive_least_word(gens, points, targets, frozenset()):
                                    expected.append(y)
                                if y in offered:
                                    passed.append(y)
                        assert list(offered) == sorted(set(offered)), (x, offered)
                        assert passed == expected, (var, x, offered)
                        if var == 1:
                            assert set(offered) <= {x, n}, (x, offered)
                            seen["premise"] += 1
                        else:
                            seen["projected"] += 1
                        seen["sink offered"] += n in offered
                        seen["none offered"] += not offered
        assert all(seen.values()), seen

    def test_inverse_edges_are_offered_the_inverse_reach(self):
        # after a random run of binds, each unforced inverse edge from a real
        # point x is offered, in ascending order, the real points that some
        # word sends x to while it sends every real end point back to its
        # start, then the sink.  When every bound end is real, those are
        # exactly the points y of 0..n that bind and whose relaxed query
        # answers; when a start point is bound to the sink the offer holds
        # them all, and the walk queries the rest.  x1 is a premise variable:
        # its inverse literal is a forward edge (an idempotent is its own
        # inverse), offered exactly what binding it admits.  Each bind, the
        # random ones included, takes its exponent from the variable's edges
        rng = random.Random(432)
        ident = parse_identity("x1=x1^2 => x1^-1 x2^-1 = x2 x1")
        seen = dict.fromkeys(("exact", "sink end", "queried", "excluded", "premise"), 0)
        for gens in seeded_generator_sets(432, 60, degrees=(2, 3, 4, 5, 6),
                                          inverse_closed=True):
            n = gens.degree
            letters = _tables(_keys(gens))
            reach_cache: dict = {}
            index_cache: dict = {}
            queried: dict = {}
            for var in (1, 2):
                occ = _Occurrences(ident, var, n)
                exponent = occ.edges[0][2]
                assert exponent == (1 if var == 1 else -1)
                for _ in range(8):
                    # the walk only offers from a spec whose relaxed query answers
                    sinks = rng.random() < 0.5
                    spec = _EMPTY
                    for _ in range(rng.randrange(n + 1)):
                        y = n if sinks and rng.random() < 0.4 else rng.randrange(n)
                        bound = _bind(occ, spec, rng.randrange(n), y, rng.choice(occ.edges)[2])
                        if bound is not None and _run_word(letters, bound, n, queried,
                                                           _Work(10**7), full=False):
                            spec = bound
                    ends, real, forbidden = spec
                    exact = len(ends) == len(real)
                    for x in range(n):
                        if x in (ends if exponent == 1 else real):
                            continue  # the end point is forced
                        offered = list(_offer(letters, occ, spec, x, exponent, reach_cache,
                                              index_cache, _Work(10**7)))
                        answers = []
                        for y in range(n + 1):
                            bound = _bind(occ, spec, x, y, exponent)
                            if bound is not None and _run_word(
                                    letters, bound, n, queried, _Work(10**7),
                                    full=False) is not None:
                                answers.append(y)
                        assert offered == sorted(set(offered)), (x, offered)
                        if var == 1:
                            assert offered == answers, (spec, x, offered)
                            seen["premise"] += 1
                            continue
                        assert offered[-1] == n, (x, offered)
                        if exact:
                            assert offered == answers, (spec, x, offered)
                        else:
                            assert set(answers) <= set(offered), (spec, x, offered)
                            seen["queried"] += answers != offered
                        seen["exact" if exact else "sink end"] += 1
                        seen["excluded"] += x in forbidden
        assert all(seen.values()), seen


class TestFrontierSymmetry:
    """Degrees 16-32, which no oracle reaches.  An inverse semigroup S
    satisfies u = v iff it satisfies the words reversed with their exponents
    kept: the reversed word takes at an assignment b the inverse of the value
    u takes at b's inverses, and b -> b^-1 permutes the assignments (keeping
    the idempotent ones).  Renaming the points gives an isomorphic copy, and
    appending a product of two generators generates the same semigroup."""

    IDENTITIES = (
        "x1 x1^-1 = x1^-1 x1",
        "x1^-1 = x1^-1 x1^-1",
        "x1 x2^-1 x1 = x1",
        "x1=x1^2 => x1^-1 x1^-1 = x2",
        "x1^-1 x1 x2 = x2 x1^-1 x1",
    )

    def test_reversal_and_conjugation_keep_verdicts(self):
        # random sets, which mostly fail, and the sweep's semilattices,
        # commutative and Clifford sets, which the identities often hold in;
        # the walk alone must agree with models on each it decides within
        # its budget
        sweep = load_script("model_check_sweep")
        rng = random.Random(433)
        kinds = ("random", "semilattice", "commutative", "clifford")
        seen = dict.fromkeys((True, False, "walk over budget"), 0)
        for i in range(80):
            kind, n, k = kinds[i % len(kinds)], rng.randint(16, 32), rng.randint(1, 3)
            if kind == "random":
                gens = random_generator_set(rng, n, k)
            else:
                gens = sweep.class_generator_set(rng, n, k, kind)
            gens = gens.with_inverses()
            renamed = conjugate(gens, rng.sample(range(n), n))
            extended = GeneratorSet(n, (*gens.generators,
                                        rng.choice(gens.generators) * rng.choice(gens.generators)))
            for text in self.IDENTITIES:
                ident = parse_identity(text)
                reversed_ = Identity(ident.num_vars, ident.num_premises, ident.lhs[::-1],
                                     ident.rhs[::-1])
                checks = [(ident, models(gens, ident)),
                          (reversed_, models(gens, reversed_)),
                          (ident, models(renamed, ident)),
                          (ident, models(extended, ident))]
                try:
                    checks.append((ident, walk(gens, ident, budget=100_000)))
                except LimitExceeded:
                    seen["walk over budget"] += 1
                verdict = checks[0][1].models
                for idn, result in checks:
                    assert result.models == verdict, (text, str(idn), gens.to_json_obj())
                    if not verdict:
                        _, lhs, rhs = counterexample_values(result.generators, idn,
                                                            result.counterexample)
                        assert lhs != rhs
                seen[verdict] += 1
        assert seen[True] > 100 and seen[False] > 100, seen


class TestOracleAgreement:
    #: stresses beyond the acceptance corpus: double inverses, mixed
    #: exponents, premises interacting with inverse literals
    EXTRA = (
        "x1^-1 = x1^-1 x1^-1",
        "x1 x1 = x1 x1^-1",
        "x2^-1 x1 = x1 x2",
        "x1=x1^2 => x1^-1 = x1",
        "x1=x1^2 => x2 x1 x2^-1 = x2 x2^-1",
        "x1 x2^-1 x1 = x1",
        "x1 x1 x1 = x1",
        "x1 x2 x3 = x3 x2 x1",
        "x1 x2 x1 = x1 x1 x2",
    )

    @pytest.mark.parametrize("text", MODEL_CORPUS + EXTRA)
    def test_agrees_with_oracle(self, text):
        ident = parse_identity(text)
        for gens in seeded_generator_sets(404, 40, degrees=(2, 3), inverse_closed=True):
            fast = models(gens, ident)
            slow = oracle_models(gens, ident)
            assert fast.models == slow.models, [g.to_text() for g in gens.generators]
            if not fast.models:
                _, lhs, rhs = counterexample_values(fast.generators, ident, fast.counterexample)
                assert lhs != rhs

    def test_agrees_via_per_boundary_runs(self):
        # models() groups boundary guesses; spot-check it against the naive
        # loop that calls check_variable_run per boundary
        from itertools import product as iproduct

        ident = parse_identity("x1 x1^-1 = x1^-1 x1")
        for gens in seeded_generator_sets(405, 6, degrees=(2,), inverse_closed=True):
            n = gens.degree
            found = None
            values = range(n + 1)
            for p1 in range(n):
                for rest in iproduct(values, repeat=4):
                    p = (p1,) + rest[:2]
                    q = (p1,) + rest[2:]
                    if p[-1] == q[-1]:
                        continue
                    boundary = BoundaryGuess(p, q)
                    runs = [
                        check_variable_run(gens, ident, v, boundary)
                        for v in range(1, ident.num_vars + 1)
                    ]
                    if None not in runs:
                        found = boundary
                        break
                if found:
                    break
            assert (found is not None) == (not models(gens, ident).models)

    @pytest.mark.parametrize("text", (
        "x1 x2 x3 = x3 x2 x1",
        "x1=x1^2, x2=x2^2 => x1 x2 = x2 x1",
        "x1 x1^-1 = x1^-1 x1",
        "x1 x2^-1 x1 = x1",
        "x1^-1 = x1^-1 x1^-1",
        "x1 x2 x1 = x1 x1 x2",
        "x1=x1^2 => x2 x1 x2^-1 = x2 x2^-1",
        "x3=x3^2 => x1 x2 = x2 x1",
        "x1 x1 = x1 x1 x1",
        "x1 x1^-1 x1 = x1",
        "x1 x2 x1 = x2 x1 x2",
        "x1=x1^2 => x1^-1 x1^-1 = x2",
        "x1=x1^2, x2=x2^2, x3=x3^2 => x3^-1 x3^-1 = x1",
    ))
    def test_least_counterexample_matches_naive_loop(self, text):
        # every boundary in lexicographic order, each variable run on its own:
        # the first boundary all variables accept is the least counterexample
        ident = parse_identity(text)
        l = len(ident.lhs)
        for gens in seeded_generator_sets(407, 8, degrees=(2, 3), inverse_closed=True):
            n = gens.degree
            values = range(n + 1)
            expected = None
            for p1 in range(n):
                for rest in product(values, repeat=l + len(ident.rhs)):
                    boundary = BoundaryGuess((p1,) + rest[:l], (p1,) + rest[l:])
                    if boundary.p[-1] == boundary.q[-1]:
                        continue
                    words = []
                    for v in range(1, ident.num_vars + 1):
                        word = check_variable_run(gens, ident, v, boundary)
                        if word is None:
                            break
                        words.append(word)
                    else:
                        expected = (boundary, tuple(words))
                        break
                if expected:
                    break
            # the walk too, for the laws among these, which models answers first
            for result in (models(gens, ident), walk(gens, ident)):
                assert result.models == (expected is None)
                if expected:
                    cex = result.counterexample
                    assert (cex.boundary, cex.words) == expected


def test_premise_constrained_counterexamples_use_idempotent_powers():
    rng = random.Random(406)
    ident = parse_identity("x1=x1^2 => x1 x2 = x2 x1")
    checked = 0
    for _ in range(60):
        gens = random_generator_set(rng, rng.choice([2, 3]), rng.randint(1, 2),
                                    inverse_closed=True)
        result = models(gens, ident)
        assert result.models == oracle_models(gens, ident).models
        if not result.models:
            assignment, lhs, rhs = counterexample_values(
                result.generators, ident, result.counterexample
            )
            assert assignment[0] * assignment[0] == assignment[0]
            assert lhs != rhs
            checked += 1
    assert checked > 0
