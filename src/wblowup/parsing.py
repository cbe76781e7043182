"""Text forms: polynomial grammar, weight vectors, canonical printing.

Polynomial grammar (whitespace is free between tokens):

    polynomial  :=  [sign] term (sign term)*
    sign        :=  '+' | '-'
    term        :=  coefficient ['*' factors] | factors
    coefficient :=  integer ['/' integer]
    factors     :=  factor ('*' factor)*
    factor      :=  'x' index ['^' exponent]     e.g. x3, x1^5

Variable indices are 1-based and must stay within the ambient dimension;
exponents must be at least 1 (omitted means 1).  Like terms are combined,
and full cancellation yields the zero polynomial as a value; operations
that cannot accept it reject it themselves.  Printing inverts the grammar,
terms in the grlex order the ``Polynomial`` constructor stores them in, so
parse(format(f)) round-trips.

Parsing runs on compiled patterns, not tokens.  A scan for bad characters
goes first.  Then one term pattern is matched at each term start: a sign,
the coefficient, the '/' with its denominator, the '*', the factors and a
dangling '*', each piece carrying its trailing blanks and each optional.
The match stops where the term stops, and the empty groups say which
piece is missing, so every error keeps the position of the token the
grammar expected there.  A factor pattern walks the factors from left to
right, checking each index and exponent.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .errors import InvalidWeightError, PolynomialSyntaxError
from .monomials import Monomial, Polynomial, _dimension, _wrong_type
from .weights import Weight

__all__ = [
    "parse_polynomial",
    "parse_monomial",
    "parse_weight",
    "format_monomial",
    "format_polynomial",
]

_BAD_CHARACTER = re.compile(r"[^\s\dx+\-*/^]|x(?!\d)")
_FACTOR_TEXT = r"x\d+\s*(?:\^\s*(?:\d+\s*)?)?"
_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?P<body>"
    r"(?:(?P<num>\d+)\s*(?P<slash>/\s*(?:(?P<den>\d+)\s*)?)?(?P<star>\*\s*)?)?"
    rf"(?P<factors>{_FACTOR_TEXT}(?:\*\s*{_FACTOR_TEXT})*(?P<dangling>\*\s*)?)?)"
)
_FACTOR = re.compile(r"x(\d+)\s*(?:(\^)\s*(\d+)?)?")
_TOKEN = re.compile(r"x?\d+|\S")


def parse_polynomial(text: str, ambient_dim: int) -> Polynomial:
    """Parse the grammar above into a canonical Polynomial.

    Full cancellation (for example "x1 - x1") parses to the zero
    polynomial rather than raising; callers that need a nonzero value are
    responsible for rejecting it.
    """
    ambient_dim = _dimension(ambient_dim)
    bad = _BAD_CHARACTER.search(text)
    if bad:
        raise PolynomialSyntaxError(f"unexpected character {bad.group()!r}", bad.start())
    terms: list[tuple[Monomial, int | Fraction]] = []
    pos = 0
    while True:
        term = _TERM.match(text, pos)
        sign, body, num, slash, den, star, factors, dangling = term.groups()
        if terms and not sign:
            got = _TOKEN.match(text, pos).group()
            raise PolynomialSyntaxError(f"expected '+' or '-' between terms, got {got!r}", pos)
        pos = term.start("body")
        if not body:
            if pos == len(text):
                raise PolynomialSyntaxError("expected a term" if sign else "empty input", pos)
            raise PolynomialSyntaxError(f"expected a term, got {text[pos]!r}", pos)
        coeff: int | Fraction = 1 if num is None else int(num)
        if slash:
            if den is None:
                raise PolynomialSyntaxError(
                    "expected an integer denominator after '/'", term.end("slash")
                )
            if int(den) == 0:
                raise PolynomialSyntaxError("zero denominator", term.start("den"))
            coeff = Fraction(coeff, int(den))
        if num and factors and not star:
            raise PolynomialSyntaxError(
                "missing '*' between coefficient and variable", term.start("factors")
            )
        exponents = [0] * ambient_dim
        if factors:
            for factor in _FACTOR.finditer(text, term.start("factors"), term.end("factors")):
                index = int(factor[1])
                if not 1 <= index <= ambient_dim:
                    raise PolynomialSyntaxError(
                        f"variable index {index} out of range 1..{ambient_dim} "
                        "(indices are 1-based)",
                        factor.start(),
                    )
                if factor[2] and factor[3] is None:
                    raise PolynomialSyntaxError(
                        "expected an integer exponent after '^'", factor.end()
                    )
                exponent = 1 if factor[3] is None else int(factor[3])
                if exponent < 1:
                    raise PolynomialSyntaxError("exponent must be at least 1", factor.start(3))
                exponents[index - 1] += exponent
        if dangling or (star and not factors):
            raise PolynomialSyntaxError("expected a variable like x1", term.end())
        terms.append((Monomial(tuple(exponents)), -coeff if sign == "-" else coeff))
        pos = term.end()
        if pos == len(text):
            return Polynomial.from_terms(terms, ambient_dim)


def parse_monomial(text: str, ambient_dim: int) -> Monomial:
    """Parse a single monomial with coefficient 1."""
    poly = parse_polynomial(text, ambient_dim)
    if len(poly.terms) != 1 or poly.terms[0][1] != 1:
        raise PolynomialSyntaxError("expected a single monomial with coefficient 1", 0)
    return poly.terms[0][0]


def _format_monomials(exps: Sequence[tuple[int, ...]]) -> list[str]:
    """format_monomial of the monomial of each exponent tuple of ``exps``.

    The tuples share one length.  Works column by column: each variable
    maps the distinct exponents of its column to factor strings once, and
    the rows are joined in C.
    """
    columns = []
    for i, column in enumerate(zip(*exps), start=1):
        factors = {e: f"*x{i}^{e}" if e > 1 else f"*x{i}" if e else "" for e in set(column)}
        columns.append(map(factors.__getitem__, column))
    return [row[1:] or "1" for row in map("".join, zip(*columns))]


def format_monomial(m: Monomial) -> str:
    """Inverse of parse_monomial; the empty exponent vector prints as "1"."""
    return _format_monomials((m.exponents,))[0]


def format_polynomial(f: Polynomial) -> str:
    """Inverse of parse_polynomial on canonical forms; zero prints as "0"."""
    if f.is_zero():
        return "0"
    pieces = []
    texts = _format_monomials([m.exponents for m, _ in f.terms])
    for position, ((_, c), text) in enumerate(zip(f.terms, texts)):
        magnitude = abs(c)
        if text == "1":
            rendered = str(magnitude)
        elif magnitude == 1:
            rendered = text
        else:
            rendered = f"{magnitude}*{text}"
        if position == 0:
            pieces.append(f"-{rendered}" if c < 0 else rendered)
        else:
            pieces.append(f" - {rendered}" if c < 0 else f" + {rendered}")
    return "".join(pieces)


def parse_weight(text: str, ambient_dim: int) -> Weight:
    """Parse "a1,a2,...,ak" and pad with zeros up to the ambient dimension.

    The entries listed must be the positive ones; shape violations (a zero
    or negative entry, gcd above 1, more entries than variables) raise
    InvalidWeightError; an ambient dimension that is not an integer of at
    least 1 raises InvalidArgumentError first, as in parse_polynomial.
    """
    ambient_dim = _dimension(ambient_dim)
    try:
        parts = [p.strip() for p in text.split(",")]
    except AttributeError:
        raise _wrong_type("parse_weight", "weight text as a str", text) from None
    if any(not p for p in parts):
        raise InvalidWeightError(f"malformed weight text {text!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise InvalidWeightError(f"weight entries must be integers: {text!r}") from exc
    if len(values) > ambient_dim:
        raise InvalidWeightError(
            f"{len(values)} weight entries exceed the ambient dimension {ambient_dim}"
        )
    return Weight(tuple(values) + (0,) * (ambient_dim - len(values)))
