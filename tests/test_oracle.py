import pytest

from pbsg import (
    ArityOverflow,
    GeneratorSet,
    PartialBijection,
    PropertyName,
    close,
    oracle_check,
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
        assert oracle_check(clo, PropertyName.GROUP)
        assert oracle_check(clo, PropertyName.SEMILATTICE)
        assert oracle_check(clo, PropertyName.COMMUTATIVE)

    def test_shift_is_not_completely_regular(self):
        clo = clo_of("2 _")
        report = oracle_report(clo, PropertyName.COMPLETELY_REGULAR)
        assert not report.holds
        assert report.witness == {"element": "2 _"}

    def test_swap_generates_a_group(self):
        assert oracle_check(clo_of("2 1"), PropertyName.GROUP)

    def test_shift_closure_is_nilpotent_with_zero(self):
        clo = clo_of("2 _")
        for prop in (PropertyName.LEFT_ZERO, PropertyName.RIGHT_ZERO, PropertyName.ZERO):
            assert oracle_check(clo, prop)
        report = oracle_report(clo, PropertyName.NILPOTENT)
        assert report.holds
        assert report.witness["zero"] == "_ _"
        assert report.witness["annihilating_length"] == 2

    def test_group_is_not_nilpotent(self):
        clo = clo_of("2 1")
        assert not oracle_check(clo, PropertyName.ZERO)
        assert not oracle_check(clo, PropertyName.NILPOTENT)

    def test_group_of_order_two_is_not_r_trivial(self):
        assert not oracle_check(clo_of("2 1"), PropertyName.R_TRIVIAL)

    def test_semilattice_is_r_trivial(self):
        assert oracle_check(clo_of("1 _", "_ 2"), PropertyName.R_TRIVIAL)

    def test_central_idempotents(self):
        assert oracle_check(clo_of("2 1"), PropertyName.CENTRAL_IDEMPOTENTS)
        assert not oracle_check(clo_of("2 1", "1 _"), PropertyName.CENTRAL_IDEMPOTENTS)

    def test_shift_not_regular(self):
        assert not oracle_check(clo_of("2 _"), PropertyName.REGULAR)

    def test_inverse_closed_sets_are_regular(self):
        for gens in seeded_generator_sets(201, 15, degrees=(2, 3, 4), inverse_closed=True):
            assert oracle_check(close(gens), PropertyName.REGULAR)

    def test_band_iff_semilattice_on_partial_bijections(self):
        for gens in seeded_generator_sets(202, 30, degrees=(2, 3, 4)):
            clo = close(gens)
            assert oracle_check(clo, PropertyName.BAND) == oracle_check(
                clo, PropertyName.SEMILATTICE
            )

    def test_clifford_equals_completely_regular(self):
        for gens in seeded_generator_sets(203, 20, degrees=(2, 3)):
            clo = close(gens)
            assert oracle_check(clo, PropertyName.CLIFFORD) == oracle_check(
                clo, PropertyName.COMPLETELY_REGULAR
            )


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
        with pytest.raises(ArityOverflow):
            oracle_models(gens, parse_identity("x1 x2 x3 = x3 x2 x1"))

    def test_violating_assignment_replays(self):
        ident = parse_identity("x1 x2 = x2 x1")
        for gens in seeded_generator_sets(206, 20, degrees=(2, 3), inverse_closed=True):
            res = oracle_models(gens, ident)
            if not res.models:
                left = apply_assignment(ident.lhs, res.assignment)
                right = apply_assignment(ident.rhs, res.assignment)
                assert left != right
