"""Polynomial and weight text forms."""

from __future__ import annotations

import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_format_monomial, brute_parse_polynomial, format_weight
from strategies import polynomials
from wblowup.errors import InvalidArgumentError, InvalidWeightError, PolynomialSyntaxError
from wblowup.monomials import Monomial, Polynomial
from wblowup.parsing import (
    _format_monomials,
    format_monomial,
    format_polynomial,
    parse_monomial,
    parse_polynomial,
    parse_weight,
)
from wblowup.weights import Weight


def M(*exps: int) -> Monomial:
    return Monomial(tuple(exps))


class TestParsePolynomial:
    def test_single_monomial(self):
        f = parse_polynomial("x1^5*x2^4*x3", 3)
        assert f == Polynomial.from_monomial(M(5, 4, 1))

    def test_coefficients_and_signs(self):
        f = parse_polynomial("3/2*x1^2 - x2 + 7", 2)
        assert f.terms == (
            (M(0, 0), Fraction(7)),
            (M(0, 1), Fraction(-1)),
            (M(2, 0), Fraction(3, 2)),
        )

    def test_leading_sign(self):
        assert parse_polynomial("-x1 + x2", 2) == Polynomial.from_terms(
            [(M(1, 0), -1), (M(0, 1), 1)], 2
        )
        assert parse_polynomial("+x1", 2) == Polynomial.from_monomial(M(1, 0))

    def test_whitespace_is_free(self):
        assert parse_polynomial("  x1 * x2 ^ 3+ 2 ", 2) == parse_polynomial(
            "x1*x2^3 + 2", 2
        )

    def test_repeated_variable_accumulates(self):
        assert parse_polynomial("x1*x1^2", 2) == Polynomial.from_monomial(M(3, 0))

    def test_like_terms_combine(self):
        f = parse_polynomial("x1 + x1", 2)
        assert f.terms == ((M(1, 0), Fraction(2)),)

    def test_full_cancellation_is_zero(self):
        assert parse_polynomial("x1 - x1", 2).is_zero()

    def test_constant(self):
        assert parse_polynomial("5/3", 1).terms == ((M(0), Fraction(5, 3)),)


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("", 2)
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("   ", 2)

    def test_missing_star_between_coefficient_and_variable(self):
        with pytest.raises(PolynomialSyntaxError, match="missing '\\*'"):
            parse_polynomial("2x1", 2)

    def test_zero_denominator(self):
        with pytest.raises(PolynomialSyntaxError, match="zero denominator"):
            parse_polynomial("1/0", 1)

    def test_index_out_of_range(self):
        with pytest.raises(PolynomialSyntaxError, match="out of range"):
            parse_polynomial("x3", 2)
        with pytest.raises(PolynomialSyntaxError, match="1-based"):
            parse_polynomial("x0", 2)

    def test_zero_exponent(self):
        with pytest.raises(PolynomialSyntaxError, match="at least 1"):
            parse_polynomial("x1^0", 2)

    def test_bad_character(self):
        with pytest.raises(PolynomialSyntaxError, match="unexpected character"):
            parse_polynomial("x1 + y2", 2)

    def test_positions_reported(self):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial("x1 + x9", 2)
        assert exc.value.position == 5
        assert "position 5" in str(exc.value)

    def test_error_code(self):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial("x1 +", 2)
        assert exc.value.code == "PARSE_ERROR"

    def test_trailing_garbage(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x1 x2", 2)


# Every parse error in full: the text, the ambient dimension, str(exc)
# and the position.
PARSE_ERRORS = [
    ("", 2, "empty input (at position 0)", 0),
    ("   ", 2, "empty input (at position 3)", 3),
    ("2/*x1", 2, "expected an integer denominator after '/' (at position 2)", 2),
    ("1/0", 1, "zero denominator (at position 2)", 2),
    ("2/0*x9", 2, "zero denominator (at position 2)", 2),
    ("2x1", 2, "missing '*' between coefficient and variable (at position 1)", 1),
    ("2/3x1", 2, "missing '*' between coefficient and variable (at position 3)", 3),
    ("x1*", 2, "expected a variable like x1 (at position 3)", 3),
    ("2**x1", 2, "expected a variable like x1 (at position 2)", 2),
    ("x1^*x2", 2, "expected an integer exponent after '^' (at position 3)", 3),
    ("x1^ ", 2, "expected an integer exponent after '^' (at position 4)", 4),
    ("x1^0", 2, "exponent must be at least 1 (at position 3)", 3),
    ("x\u0661^\u0660", 2, "exponent must be at least 1 (at position 3)", 3),
    ("x1^2^3", 2, "expected '+' or '-' between terms, got '^' (at position 4)", 4),
    ("2/3/4", 2, "expected '+' or '-' between terms, got '/' (at position 3)", 3),
    ("x1 x23", 2, "expected '+' or '-' between terms, got 'x23' (at position 3)", 3),
    ("x1 23", 2, "expected '+' or '-' between terms, got '23' (at position 3)", 3),
    ("+", 2, "expected a term (at position 1)", 1),
    ("x1 +", 2, "expected a term (at position 4)", 4),
    ("*x1", 2, "expected a term, got '*' (at position 0)", 0),
    ("+-x1", 2, "expected a term, got '-' (at position 1)", 1),
    ("x1 + y2", 2, "unexpected character 'y' (at position 5)", 5),
    ("x 1", 2, "unexpected character 'x' (at position 0)", 0),
    ("x3", 2, "variable index 3 out of range 1..2 (indices are 1-based) (at position 0)", 0),
    ("x0", 2, "variable index 0 out of range 1..2 (indices are 1-based) (at position 0)", 0),
    ("x9^0", 2, "variable index 9 out of range 1..2 (indices are 1-based) (at position 0)", 0),
]


@pytest.mark.parametrize("text, n, message, position", PARSE_ERRORS)
def test_parse_error_in_full(text, n, message, position):
    with pytest.raises(PolynomialSyntaxError) as exc:
        parse_polynomial(text, n)
    assert (str(exc.value), exc.value.position) == (message, position)


def _outcome(parse, text: str, n: int):
    """The value parsed, or the class, message and position of the parse error."""
    try:
        return parse(text, n)
    except PolynomialSyntaxError as exc:
        return type(exc), str(exc), exc.position


# Token-level pieces, Unicode digits and blanks and bad characters included.
_PIECES = ["x0", "x1", "x2", "x3", "x10", "0", "1", "12", "/", "*", "^", "+", "-",
           " ", "\t", "\u00a0", "\u0663", "y", "x"]


class TestAgainstTheTokenParser:
    @given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join), st.integers(1, 3))
    @settings(max_examples=400)
    def test_drawn_texts(self, text, n):
        assert _outcome(parse_polynomial, text, n) == _outcome(brute_parse_polynomial, text, n)

    def test_every_short_text(self):
        for length in range(5):
            for chars in itertools.product(" x12+-*/^0", repeat=length):
                text = "".join(chars)
                assert _outcome(parse_polynomial, text, 2) == _outcome(
                    brute_parse_polynomial, text, 2
                ), text


class TestParseMonomial:
    def test_examples(self):
        assert parse_monomial("x1^5*x2^4*x3", 3) == M(5, 4, 1)
        assert parse_monomial("1", 2) == M(0, 0)

    def test_rejects_sums_and_coefficients(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_monomial("x1 + x2", 2)
        with pytest.raises(PolynomialSyntaxError):
            parse_monomial("2*x1", 2)


class TestFormatting:
    def test_monomial_forms(self):
        assert format_monomial(M(5, 4, 1)) == "x1^5*x2^4*x3"
        assert format_monomial(M(0, 0)) == "1"
        assert format_monomial(M(0, 1, 0)) == "x2"

    def test_polynomial_forms(self):
        f = Polynomial.from_terms(
            [(M(2, 0), Fraction(3, 2)), (M(0, 1), -1), (M(0, 0), 7)], 2
        )
        assert format_polynomial(f) == "7 - x2 + 3/2*x1^2"
        assert format_polynomial(Polynomial.zero(2)) == "0"
        neg = Polynomial.from_terms([(M(1, 0), -2)], 2)
        assert format_polynomial(neg) == "-2*x1"

    @given(polynomials(max_dim=4))
    @settings(max_examples=150)
    def test_round_trip(self, f):
        assert parse_polynomial(format_polynomial(f), f.ambient_dim) == f

    @given(st.tuples(*[st.integers(0, 6)] * 3))
    def test_monomial_round_trip(self, exps):
        m = Monomial(exps)
        assert parse_monomial(format_monomial(m), 3) == m

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(st.tuples(*[st.integers(0, 3) | st.integers(0, 10**6)] * n))
        )
    )
    @settings(max_examples=150)
    def test_bulk_matches_the_factor_loop(self, rows):
        assert _format_monomials(rows) == [brute_format_monomial(Monomial(e)) for e in rows]

    def test_bulk_edge_cases(self):
        assert _format_monomials([]) == []
        assert _format_monomials([(0, 0, 0)]) == ["1"]
        assert _format_monomials([(0, 10**6), (0, 0), (1, 1)]) == [
            "x2^1000000",
            "1",
            "x1*x2",
        ]

    def test_bulk_tables_do_not_grow_with_the_exponent(self):
        exps = [(10**6, 0), (0, 10**6)]
        tracemalloc.start()
        try:
            _format_monomials(exps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestParseWeight:
    def test_padding(self):
        assert parse_weight("10,14,35", 3) == Weight((10, 14, 35))
        assert parse_weight("1,1,2", 5) == Weight((1, 1, 2, 0, 0))

    def test_whitespace(self):
        assert parse_weight(" 1 , 1 , 3 ", 4) == Weight((1, 1, 3, 0))

    def test_errors(self):
        with pytest.raises(InvalidWeightError):
            parse_weight("1,,2", 3)
        with pytest.raises(InvalidWeightError):
            parse_weight("1,a", 3)
        with pytest.raises(InvalidWeightError):
            parse_weight("1,1,1,1", 3)
        with pytest.raises(InvalidWeightError):
            parse_weight("2,4", 3)
        with pytest.raises(InvalidWeightError):
            parse_weight("0,1", 2)
        with pytest.raises(InvalidWeightError) as exc:
            parse_weight("", 2)
        assert exc.value.code == "INVALID_WEIGHT"

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_ambient_dimension(self, n):
        # Checked before the entries, as parse_polynomial does: the text
        # "1,2" is not at fault.
        with pytest.raises(InvalidArgumentError, match="ambient dimension must be at least 1"):
            parse_weight("1,2", n)

    def test_format_inverts_parse(self):
        for text, n in [("10,14,35", 3), ("1,1,2", 5), ("1", 2)]:
            assert format_weight(parse_weight(text, n)) == text.replace(" ", "")
