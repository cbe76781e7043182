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
terms ordered by :func:`wblowup.monomials.grlex_key`, so parse(format(f))
round-trips.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidArgumentError, InvalidWeightError, PolynomialSyntaxError
from .monomials import Monomial, Polynomial
from .weights import Weight

__all__ = [
    "parse_polynomial",
    "parse_monomial",
    "parse_weight",
    "format_monomial",
    "format_polynomial",
    "format_weight",
]

_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<var>x\d+)|(?P<op>[+\-*/^])|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise PolynomialSyntaxError(
                f"unexpected character {match.group()!r}", match.start()
            )
        tokens.append((kind, match.group(), match.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ambient_dim: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = ambient_dim

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        raise PolynomialSyntaxError(message, self.peek()[2])

    def parse_polynomial(self) -> Polynomial:
        terms: list[tuple[Monomial, Fraction]] = []
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
        elif kind == "end":
            self.fail("empty input")
        while True:
            mono, coeff = self.parse_term()
            terms.append((mono, sign * coeff))
            kind, value, _ = self.peek()
            if kind == "end":
                break
            if kind == "op" and value in "+-":
                self.advance()
                sign = -1 if value == "-" else 1
                continue
            self.fail(f"expected '+' or '-' between terms, got {value!r}")
        return Polynomial.from_terms(terms, self.n)

    def parse_term(self) -> tuple[Monomial, Fraction]:
        kind, value, _ = self.peek()
        coeff = Fraction(1)
        if kind == "num":
            self.advance()
            numerator = int(value)
            kind, value, _ = self.peek()
            if kind == "op" and value == "/":
                self.advance()
                dkind, dvalue, dpos = self.peek()
                if dkind != "num":
                    self.fail("expected an integer denominator after '/'")
                self.advance()
                if int(dvalue) == 0:
                    raise PolynomialSyntaxError("zero denominator", dpos)
                coeff = Fraction(numerator, int(dvalue))
            else:
                coeff = Fraction(numerator)
            kind, value, _ = self.peek()
            if kind == "var":
                self.fail("missing '*' between coefficient and variable")
            if kind == "op" and value == "*":
                self.advance()
                return self.parse_factors(), coeff
            return Monomial.one(self.n), coeff
        if kind == "var":
            return self.parse_factors(), coeff
        self.fail(f"expected a term, got {value!r}" if value else "expected a term")
        raise AssertionError("unreachable")

    def parse_factors(self) -> Monomial:
        exponents = [0] * self.n
        while True:
            kind, value, pos = self.peek()
            if kind != "var":
                self.fail("expected a variable like x1")
            self.advance()
            index = int(value[1:])
            if not 1 <= index <= self.n:
                raise PolynomialSyntaxError(
                    f"variable index {index} out of range 1..{self.n} (indices are 1-based)",
                    pos,
                )
            exponent = 1
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                ekind, evalue, epos = self.peek()
                if ekind != "num":
                    self.fail("expected an integer exponent after '^'")
                self.advance()
                exponent = int(evalue)
                if exponent < 1:
                    raise PolynomialSyntaxError("exponent must be at least 1", epos)
            exponents[index - 1] += exponent
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                continue
            return Monomial(tuple(exponents))


def parse_polynomial(text: str, ambient_dim: int) -> Polynomial:
    """Parse the grammar above into a canonical Polynomial.

    Full cancellation (for example "x1 - x1") parses to the zero
    polynomial rather than raising; callers that need a nonzero value are
    responsible for rejecting it.
    """
    if ambient_dim < 1:
        raise InvalidArgumentError("ambient dimension must be at least 1")
    return _Parser(text, ambient_dim).parse_polynomial()


def parse_monomial(text: str, ambient_dim: int) -> Monomial:
    """Parse a single monomial with coefficient 1."""
    poly = parse_polynomial(text, ambient_dim)
    if len(poly.terms) != 1 or poly.terms[0][1] != 1:
        raise PolynomialSyntaxError("expected a single monomial with coefficient 1", 0)
    return poly.terms[0][0]


def format_monomial(m: Monomial) -> str:
    """Inverse of parse_monomial; the empty exponent vector prints as "1"."""
    if m.is_one():
        return "1"
    parts = []
    for i, e in enumerate(m.exponents, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def format_polynomial(f: Polynomial) -> str:
    """Inverse of parse_polynomial on canonical forms; zero prints as "0"."""
    if f.is_zero():
        return "0"
    pieces = []
    for position, (m, c) in enumerate(f.terms):
        magnitude = abs(c)
        body = format_monomial(m)
        if m.is_one():
            rendered = str(magnitude)
        elif magnitude == 1:
            rendered = body
        else:
            rendered = f"{magnitude}*{body}"
        if position == 0:
            pieces.append(f"-{rendered}" if c < 0 else rendered)
        else:
            pieces.append(f" - {rendered}" if c < 0 else f" + {rendered}")
    return "".join(pieces)


def parse_weight(text: str, ambient_dim: int) -> Weight:
    """Parse "a1,a2,...,ak" and pad with zeros up to the ambient dimension.

    The entries listed must be the positive ones; shape violations (a zero
    or negative entry, gcd above 1, more entries than variables) raise
    InvalidWeightError; an ambient dimension below 1 raises
    InvalidArgumentError first, as in parse_polynomial.
    """
    if ambient_dim < 1:
        raise InvalidArgumentError("ambient dimension must be at least 1")
    parts = [p.strip() for p in text.split(",")]
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


def format_weight(w: Weight) -> str:
    """Positive entries only, comma separated."""
    return ",".join(str(a) for a in w.nonzero)
