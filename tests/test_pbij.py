import pytest
from hypothesis import given, settings

from pbsg import PartialBijection, all_partial_bijections

from conftest import (
    PRIME_CYCLES,
    as_pairs,
    cycle_permutation,
    partial_bijections,
    pb,
    pbij_pairs,
    pbij_triples,
    ref_compose,
)


class TestConstruction:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PartialBijection((2, None))

    def test_rejects_duplicate_image(self):
        with pytest.raises(ValueError, match="^not injective: image 1 repeated$"):
            PartialBijection((1, 1, None))

    def test_parsers_name_a_repeated_image_one_based(self):
        # the forms are 1-indexed, so their errors name points as written
        with pytest.raises(ValueError, match="^not injective: image 2 repeated$"):
            pb("2 2 _")
        with pytest.raises(ValueError, match="^not injective: image 2 repeated$"):
            PartialBijection.from_json_obj({"degree": 3, "map": [2, 2, None]})
        with pytest.raises(ValueError, match="^not injective: image 3 repeated$"):
            pb("3 _ 3")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PartialBijection(())

    def test_degree_is_part_of_identity(self):
        assert PartialBijection((1, 0)) != PartialBijection((1, 0, None))

    def test_text_round_trip(self):
        for text in ("2 _ 1", "_ _", "1", "3 1 2"):
            assert pb(text).to_text() == text

    def test_text_errors(self):
        with pytest.raises(ValueError):
            pb("")
        with pytest.raises(ValueError):
            pb("0 1")
        with pytest.raises(ValueError):
            pb("3 1")
        with pytest.raises(ValueError):
            pb("x _")

    def test_json_round_trip(self):
        a = pb("2 _ 1")
        obj = a.to_json_obj()
        assert obj == {"degree": 3, "map": [2, None, 1]}
        assert PartialBijection.from_json_obj(obj) == a

    def test_json_errors(self):
        with pytest.raises(ValueError):
            PartialBijection.from_json_obj({"degree": 2, "map": [1]})
        with pytest.raises(ValueError):
            PartialBijection.from_json_obj({"degree": 2, "map": [0, None]})
        with pytest.raises(ValueError):
            PartialBijection.from_json_obj([1, 2])


class TestValueSemantics:
    def test_equal_entries_are_equal_values_with_equal_hashes(self):
        a, b = PartialBijection((1, None, 0)), pb("2 _ 1")
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert a != pb("1 _ 2")

    def test_values_key_sets_and_dicts(self):
        a, b = PartialBijection((1, None, 0)), pb("2 _ 1")
        assert {a, b, pb("_ _ _")} == {b, PartialBijection.empty(3)}
        table = {a: "first"}
        table[b] = "second"
        assert table == {pb("2 _ 1"): "second"}
        assert pb("1 _ 2") not in table

    def test_unequal_to_its_entries_and_to_other_degrees(self):
        a = pb("2 _ 1")
        assert a != a.entries and a.entries != a
        assert a != pb("2 _ 1 4") and a != PartialBijection((1, None))
        assert a not in {a.entries: None}

    def test_repr_is_the_text_form(self):
        assert repr(pb("2 _ 1")) == "PartialBijection('2 _ 1')"
        assert repr(PartialBijection.empty(2)) == "PartialBijection('_ _')"


class TestCompose:
    def test_identity_absorbs(self):
        for a in all_partial_bijections(3):
            assert PartialBijection.identity(3) * a == a
            assert a * PartialBijection.identity(3) == a

    def test_forced_pointwise(self):
        assert pb("2 _") * pb("_ 1") == pb("1 _")

    def test_derived_example(self):
        # expected value computed by the pointwise-evaluation oracle
        a, b = pb("2 3 _"), pb("_ _ 1")
        expected = ref_compose(a, b)
        assert expected == {1: 0}
        assert as_pairs(a * b) == expected

    @given(pbij_pairs())
    def test_matches_pointwise_oracle(self, pair):
        a, b = pair
        assert as_pairs(a * b) == ref_compose(a, b)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            pb("1") * pb("1 2")

    @settings(max_examples=300)
    @given(pbij_triples())
    def test_associative(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)


class TestInverse:
    def test_identity(self):
        assert PartialBijection.identity(4).inverse() == PartialBijection.identity(4)

    def test_reversal(self):
        assert pb("2 _").inverse() == pb("_ 1")

    @given(partial_bijections())
    def test_involution(self, a):
        assert a.inverse().inverse() == a

    @given(partial_bijections())
    def test_inverse_laws(self, a):
        inv = a.inverse()
        assert a * inv * a == a
        assert inv * a * inv == inv

    @given(partial_bijections())
    def test_products_with_inverse_are_partial_identities(self, a):
        assert a * a.inverse() == PartialBijection.partial_identity(a.degree, a.dom())
        assert a.inverse() * a == PartialBijection.partial_identity(a.degree, a.image())


class TestDomImage:
    def test_empty(self):
        assert PartialBijection.empty(3).dom() == frozenset()
        assert PartialBijection.empty(3).image() == frozenset()

    def test_read_off(self):
        a = pb("2 _ 3")
        assert a.dom() == frozenset({0, 2})
        assert a.image() == frozenset({1, 2})

    @settings(max_examples=1000)
    @given(partial_bijections())
    def test_dom_image_same_size(self, a):
        assert len(a.dom()) == len(a.image())


class TestIdempotents:
    def test_partial_identity_is_idempotent(self):
        e = PartialBijection.partial_identity(4, [0, 2])
        assert e * e == e

    def test_swap_is_not(self):
        a = pb("2 1")
        assert (a * a == a) is False

    def test_empty_is_idempotent(self):
        e = PartialBijection.empty(2)
        assert e * e == e

    @given(partial_bijections())
    def test_characterization_fixes_domain(self, a):
        assert (a * a == a) == all(a.entries[x] == x for x in a.dom())

    @given(partial_bijections(max_degree=5), partial_bijections(max_degree=5))
    def test_idempotents_commute(self, a, b):
        e = PartialBijection.partial_identity(5, a.dom() & frozenset(range(5)))
        f = PartialBijection.partial_identity(5, b.dom() & frozenset(range(5)))
        assert e * f == f * e


class TestIdempotentPower:
    def test_fixed_point(self):
        e = PartialBijection.partial_identity(3, [1])
        assert e.idempotent_power() == e

    def test_swap_squares_to_identity(self):
        a = pb("2 1")
        # oracle: iterate composition until idempotent
        powers = [a, a * a]
        assert powers[1] * powers[1] == powers[1]
        assert a.idempotent_power() == powers[1] == PartialBijection.identity(2)

    def test_shift_dies(self):
        a = pb("2 3 _")
        assert a * a == pb("3 _ _")
        assert a * a * a == PartialBijection.empty(3)
        assert a.idempotent_power() == PartialBijection.empty(3)

    def test_matches_iterated_powers_up_to_degree_four(self):
        for n in range(1, 5):
            for a in all_partial_bijections(n):
                p = a
                while p * p != p:
                    p = p * a
                assert a.idempotent_power() == p

    def test_large_order_permutation(self):
        # iterating powers would take up to 9,699,690 products
        a = cycle_permutation(PRIME_CYCLES)
        assert a.degree == 77
        assert a.idempotent_power() == PartialBijection.identity(77)

    @given(partial_bijections())
    def test_is_an_idempotent_power(self, a):
        w = a.idempotent_power()
        assert w * w == w
        p = a
        for _ in range(4 * a.degree * (a.degree + 1)):
            if p == w:
                return
            p = p * a
        pytest.fail("idempotent_power is not among the iterated powers")


class TestEmbedding:
    def test_identity_embeds_with_fixed_sink(self):
        assert pb("1 2").embed() == (0, 1, 2)
        # points are ints, not bytes: the checkers run above degree 255
        assert PartialBijection.identity(300).embed() == tuple(range(301))

    def test_undefined_goes_to_sink(self):
        assert pb("2 _").embed() == (1, 2, 2)

    @given(pbij_pairs())
    def test_homomorphism(self, pair):
        a, b = pair
        ea, eb = a.embed(), b.embed()
        assert (a * b).embed() == tuple(eb[v] for v in ea)


def test_all_partial_bijections_counts():
    # |I_n| = sum_k C(n,k)^2 k!
    assert len(all_partial_bijections(1)) == 2
    assert len(all_partial_bijections(2)) == 7
    assert len(all_partial_bijections(3)) == 34
    assert len(all_partial_bijections(4)) == 209
    assert len(all_partial_bijections(5)) == 1546


def test_all_partial_bijections_distinct_and_valid():
    seen = set(all_partial_bijections(3))
    assert len(seen) == 34
