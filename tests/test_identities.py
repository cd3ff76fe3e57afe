import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbsg import (
    EmptyWordError,
    Identity,
    IdentitySyntaxError,
    PremiseMismatchError,
    apply_assignment,
    format_identity,
    parse_identity,
)

from conftest import pb


class TestParse:
    def test_commutativity(self):
        ident = parse_identity("x1 x2 = x2 x1")
        assert ident.num_vars == 2 and ident.num_premises == 0
        assert ident.lhs == (1, 2)
        assert ident.rhs == (2, 1)

    def test_inverse_literals(self):
        ident = parse_identity("x1 x1^-1 = x1^-1 x1")
        assert ident.num_vars == 1 and ident.num_premises == 0
        assert ident.lhs == (1, -1)
        assert ident.rhs == (-1, 1)

    def test_premise_renumbering(self):
        ident = parse_identity("x2=x2^2 => x2 x1 = x1 x2")
        assert ident.num_vars == 2 and ident.num_premises == 1
        # premise variable becomes x1
        assert ident.lhs == (1, 2)
        assert ident.rhs == (2, 1)

    def test_whitespace_insensitive(self):
        assert parse_identity("x1x2=x2x1") == parse_identity("x1 x2 = x2 x1")

    def test_apostrophe_synonym(self):
        assert parse_identity("x1' x1 = x1 x1'") == parse_identity(
            "x1^-1 x1 = x1 x1^-1"
        )

    def test_sparse_variables_renumbered(self):
        ident = parse_identity("x7 x3 = x3 x7")
        assert ident.num_vars == 2
        assert ident.lhs == (1, 2)

    def test_long_variable_index(self):
        # an index is keyed by its digits, so one past the interpreter's
        # int-string limit parses, and leading zeros name the same variable
        ident = parse_identity("x" + "1" * 5000 + " = x1")
        assert ident.num_vars == 2
        assert (ident.lhs, ident.rhs) == ((1,), (2,))
        assert parse_identity("x" + "0" * 5000 + "1 x2 = x2 x1") == parse_identity("x1 x2 = x2 x1")
        with pytest.raises(IdentitySyntaxError):
            parse_identity("x" + "0" * 5000 + " = x1")

    def test_multiple_premises(self):
        ident = parse_identity("x1=x1^2, x2=x2^2 => x1 x2 = x2 x1")
        assert ident.num_premises == 2

    def test_premise_variable_absent_from_words(self):
        ident = parse_identity("x3=x3^2 => x1 x2 = x2 x1")
        assert ident.num_vars == 3 and ident.num_premises == 1
        assert ident.lhs == (2, 3)


class TestParseErrors:
    def test_unexpected_character(self):
        # an index is ASCII digits: an Arabic-Indic one is not another variable
        for text, position in (("x1 + x2 = x2 x1", 3), ("x\u0661 x1 = x1 x\u0661", 0)):
            with pytest.raises(IdentitySyntaxError) as err:
                parse_identity(text)
            assert err.value.position == position

    def test_premise_mismatch_different_variable(self):
        with pytest.raises(PremiseMismatchError):
            parse_identity("x1=x2^2 => x1 x2 = x2 x1")

    def test_premise_mismatch_missing_square(self):
        with pytest.raises(PremiseMismatchError):
            parse_identity("x1=x1 => x1 x2 = x2 x1")

    def test_empty_sides(self):
        with pytest.raises(EmptyWordError):
            parse_identity("x1 =")
        with pytest.raises(EmptyWordError):
            parse_identity("= x1")

    def test_square_not_allowed_in_words(self):
        with pytest.raises(IdentitySyntaxError):
            parse_identity("x1 = x1^2")

    def test_trailing_tokens(self):
        with pytest.raises(IdentitySyntaxError):
            parse_identity("x1 = x1 = x1")

    def test_double_implies(self):
        with pytest.raises(IdentitySyntaxError):
            parse_identity("x1=x1^2 => x1 = x1 => x2")

    def test_zero_variable(self):
        with pytest.raises(IdentitySyntaxError):
            parse_identity("x0 = x0")

    @pytest.mark.parametrize("text, position", (
        ("=> x1 = x1", 0),
        ("x1=x1^2, => x1 = x1", 9),
        ("x1 => x1 = x1", 3),
    ))
    def test_premise_list_cut_short_points_at_implies(self, text, position):
        with pytest.raises(IdentitySyntaxError) as err:
            parse_identity(text)
        assert err.value.position == position
        assert "unexpected end of input" in str(err.value)

    def test_missing_equation(self):
        with pytest.raises(IdentitySyntaxError):
            parse_identity("x1 x2")


words = st.lists(
    st.tuples(st.integers(1, 4), st.sampled_from((-1, 1))), min_size=1, max_size=6
)


class TestFormat:
    @pytest.mark.parametrize(
        "text",
        [
            "x1 x2 = x2 x1",
            "x1 x1^-1 = x1^-1 x1",
            "x2=x2^2 => x2 x1 = x1 x2",
            "x1=x1^2 => x1 x2 = x2 x1",
        ],
    )
    def test_round_trip(self, text):
        ident = parse_identity(text)
        assert parse_identity(format_identity(ident)) == ident

    def test_canonical_forms(self):
        assert format_identity(parse_identity("x1x2=x2x1")) == "x1 x2 = x2 x1"
        assert (
            format_identity(parse_identity("x1=x1^2 => x1 x2 = x2 x1"))
            == "x1=x1^2 => x1 x2 = x2 x1"
        )
        assert format_identity(parse_identity("x1' = x1'")) == "x1^-1 = x1^-1"
        ident = parse_identity("x1=x1^2 => x1 x2' = x2' x1")
        assert str(ident) == format_identity(ident) == "x1=x1^2 => x1 x2^-1 = x2^-1 x1"

    @given(words, words, st.integers(0, 4))
    def test_round_trip_random(self, lhs, rhs, premises):
        # canonical numbering: variables in order of first occurrence,
        # premise-constrained ones forming a prefix
        remap = {}
        for v, _ in lhs + rhs:
            remap.setdefault(v, len(remap) + 1)
        m = len(remap)
        e = min(premises, m)
        ident = Identity(
            num_vars=m,
            num_premises=e,
            lhs=tuple(remap[v] * f for v, f in lhs),
            rhs=tuple(remap[v] * f for v, f in rhs),
        )
        reparsed = parse_identity(format_identity(ident))
        assert reparsed == ident


class TestValidation:
    def test_word_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            Identity(1, 0, (), (1,))
        with pytest.raises(ValueError, match="nonempty"):
            Identity(1, 0, (1,), ())

    def test_literal_exponent(self):
        # a literal is a nonzero int; its sign is the exponent
        for lit in (0, True, 1.0, "x1"):
            with pytest.raises(ValueError):
                Identity(1, 0, (lit,), (1,))
            with pytest.raises(ValueError):
                Identity(1, 0, (1,), (1, lit))

    def test_identity_var_bounds(self):
        with pytest.raises(ValueError):
            Identity(1, 0, (2,), (1,))
        with pytest.raises(ValueError):
            Identity(1, 0, (1,), (-2,))
        with pytest.raises(ValueError):
            Identity(2, 3, (1,), (1,))
        with pytest.raises(ValueError, match="at least one variable"):
            Identity(0, 0, (1,), (1,))


def test_apply_assignment():
    a = pb("2 _")
    ident = parse_identity("x1 x1^-1 = x1^-1 x1")
    assert apply_assignment(ident.lhs, (a,)) == pb("1 _")
    assert apply_assignment(ident.rhs, (a,)) == pb("_ 2")
