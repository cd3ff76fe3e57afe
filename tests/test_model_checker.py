import random
from itertools import product

import pytest

from pbsg import (
    ArityOverflow,
    BoundaryGuess,
    GeneratorSet,
    PartialBijection,
    check_variable_run,
    models,
    oracle_models,
    parse_identity,
)
from pbsg.model_checker import DEFAULT_BUDGET, counterexample_values
from pbsg.sampling import random_generator_set

from conftest import MODEL_CORPUS, pb, seeded_generator_sets


def gset(*texts, closed=True):
    g = GeneratorSet.from_elements([pb(t) for t in texts])
    return g.with_inverses() if closed else g


class TestModels:
    def test_reflexive_identity(self):
        ident = parse_identity("x1 = x1")
        for gens in seeded_generator_sets(401, 10, degrees=(2, 3), inverse_closed=True):
            assert models(gens, ident).models

    def test_inverse_law_models_everywhere(self):
        ident = parse_identity("x1 x1^-1 x1 = x1")
        for gens in seeded_generator_sets(402, 25, degrees=(2, 3, 4), inverse_closed=True):
            assert models(gens, ident).models

    def test_idempotent_premise_identity_models_everywhere(self):
        ident = parse_identity("x1=x1^2 => x1 x1 = x1")
        for gens in seeded_generator_sets(403, 25, degrees=(2, 3), inverse_closed=True):
            assert models(gens, ident).models

    def test_shift_fails_inverse_commutation(self):
        result = models(gset("2 _"), parse_identity("x1 x1^-1 = x1^-1 x1"))
        assert not result.models
        assignment, lhs, rhs = counterexample_values(
            result.generators, parse_identity("x1 x1^-1 = x1^-1 x1"), result.counterexample
        )
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
        with pytest.raises(ArityOverflow):
            models(gset("2 _"), parse_identity("x1 x2 = x2 x1"), budget=10)

    def test_three_variable_identity_at_degree_8(self):
        # the semilattice of partial identities missing one point each;
        # 8 * 9**6 boundaries fit the default budget, and pruning keeps it fast
        n = 8
        gens = GeneratorSet.from_elements([
            PartialBijection([None if x == k else x for x in range(n)]) for k in range(n)
        ])
        ident = parse_identity("x1 x2 x3 = x3 x2 x1")
        assert n * (n + 1) ** 6 <= DEFAULT_BUDGET
        assert models(gens, ident).models


class TestCheckVariableRun:
    def test_empty_occurrences_accept_after_one_step(self):
        # a premise variable absent from both words imposes nothing
        ident = parse_identity("x3=x3^2 => x1 x2 = x2 x1")
        gens = gset("2 1")
        boundary = BoundaryGuess((0, 1, 0), (0, 0, 1))
        run = check_variable_run(gens, ident, 1, boundary)
        assert run.ok and len(run.word) == 1

    def test_swap_realizes_squaring_run(self):
        # boundary forcing 1->2, 2->1 and 1->2 with one word: the swap works
        gens = gset("2 1")
        ident = parse_identity("x1 x1 = x1")
        run = check_variable_run(gens, ident, 1, BoundaryGuess((0, 1, 0), (0, 1)))
        assert run.ok and run.word == (0,)

    def test_constrained_variable_needs_idempotent_compatible_run(self):
        # unconstrained: shift realizes 1->2; constrained: no idempotent
        # power of anything maps 1 to 2, so the run must fail
        gens = gset("2 _")
        plain = parse_identity("x1 = x1")
        constrained = parse_identity("x1=x1^2 => x1 = x1")
        boundary = BoundaryGuess((0, 1), (0, 1))
        assert check_variable_run(gens, plain, 1, boundary).ok
        assert not check_variable_run(gens, constrained, 1, boundary).ok

    def test_dead_point_cannot_resurrect(self):
        gens = gset("2 _")
        ident = parse_identity("x1 x1 = x1")
        n = gens.degree
        boundary = BoundaryGuess((0, n, 1), (0, 0))
        assert not check_variable_run(gens, ident, 1, boundary).ok

    def test_injectivity_rejects_merging_starts(self):
        # x1 x1 = x1 with p = 1 2 2, q = 1 2: the word must send 1 and 2 to 2
        gens = gset("2 3 1", "1 2 _")
        ident = parse_identity("x1 x1 = x1")
        assert not check_variable_run(gens, ident, 1, BoundaryGuess((0, 1, 1), (0, 1))).ok
        # distinct starts may both fall into the sink: x1 of x1 x2 = x2 x1
        # with p = 1 _ _, q = 1 2 _ must lose 1 and 2
        ident = parse_identity("x1 x2 = x2 x1")
        run = check_variable_run(gset("_ _ 3"), ident, 1, BoundaryGuess((0, 3, 3), (0, 1, 3)))
        assert run.ok and run.word == (0,)

    def test_injectivity_rejects_constrained_moves(self):
        # the idempotent power of a realized word fixes every point it keeps,
        # so a constrained 1 -> 2 (tracked as 1 -> 2 and 2 -> 2) cannot run
        gens = gset("2 1")
        boundary = BoundaryGuess((0, 1), (0, 1))
        assert check_variable_run(gens, parse_identity("x1 = x1"), 1, boundary).ok
        for text in ("x1=x1^2 => x1 = x1", "x1=x1^2 => x1^-1 = x1^-1"):
            assert not check_variable_run(gens, parse_identity(text), 1, boundary).ok

    def test_validates_boundary_shape(self):
        gens = gset("2 1")
        ident = parse_identity("x1 = x1")
        with pytest.raises(ValueError):
            check_variable_run(gens, ident, 1, BoundaryGuess((0, 0, 0), (0, 0)))
        with pytest.raises(ValueError):
            check_variable_run(gens, ident, 1, BoundaryGuess((2, 0), (2, 0)))


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
                    if all(r.ok for r in runs):
                        found = boundary
                        break
                if found:
                    break
            assert (found is not None) == (not models(gens, ident).models)

    @pytest.mark.parametrize("strict", (False, True))
    @pytest.mark.parametrize("text", (
        "x1 x2 x3 = x3 x2 x1",
        "x1=x1^2, x2=x2^2 => x1 x2 = x2 x1",
        "x1 x1^-1 = x1^-1 x1",
        "x1 x2^-1 x1 = x1",
    ))
    def test_least_counterexample_matches_naive_loop(self, text, strict):
        # every boundary in lexicographic order, each variable run on its own:
        # the first boundary all variables accept is the least counterexample
        ident = parse_identity(text)
        l = len(ident.lhs)
        for gens in seeded_generator_sets(407, 8, degrees=(2, 3), inverse_closed=True):
            n = gens.degree
            values = range(n) if strict else range(n + 1)
            expected = None
            for p1 in range(n):
                for rest in product(values, repeat=l + len(ident.rhs)):
                    boundary = BoundaryGuess((p1,) + rest[:l], (p1,) + rest[l:])
                    if boundary.p[-1] == boundary.q[-1]:
                        continue
                    words = []
                    for v in range(1, ident.num_vars + 1):
                        run = check_variable_run(gens, ident, v, boundary,
                                                 strict_points=strict)
                        if not run.ok:
                            break
                        words.append(run.word)
                    else:
                        expected = (boundary, tuple(words))
                        break
                if expected:
                    break
            result = models(gens, ident, strict_points=strict)
            assert result.models == (expected is None)
            if expected:
                cex = result.counterexample
                assert (cex.boundary, cex.words) == expected


class TestStrictPoints:
    def test_strict_mode_misses_definedness_counterexamples(self):
        # known, documented divergence: with all boundary points kept real,
        # a definedness-only disagreement is invisible
        gens = gset("2 _")
        ident = parse_identity("x1 x1^-1 = x1^-1 x1")
        assert models(gens, ident, strict_points=True).models
        assert not models(gens, ident).models
        assert not oracle_models(gens, ident).models

    def test_strict_mode_still_sees_point_disagreements(self):
        # two non-commuting permutations disagree at a real point
        gens = gset("2 3 1", "2 1 3")
        ident = parse_identity("x1 x2 = x2 x1")
        assert not models(gens, ident, strict_points=True).models


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
            assert assignment[0].is_idempotent()
            assert lhs != rhs
            checked += 1
    assert checked > 0
