"""Brute-force reference implementations used to pin expected values.

Each oracle recomputes a library answer along an independent route:
exhaustive lattice enumeration instead of pruned search, iterated or
united colons instead of closed-form saturation, explicit power scans
instead of radical membership, formed powers instead of membership
searches (``brute_power_equality`` for thresholds,
``brute_compare_symbolic_power`` for symbolic powers), chart
substitutions instead of the weighted degree
(``brute_pushforward_membership`` over ``substitute_through_chart``),
the generators of a formed radical instead of one support scan
(``brute_as_primary``), and a pairwise divisibility scan instead of the
degree-cut divisor query for minimal generating sets
(``brute_antichain``).
They are deliberately slow and simple.  ``slicing_decomposition_check``
is a structural identity rather than a second route: it cuts a threshold
ideal along one variable and compares both pieces with smaller thresholds.
``high_length_weights`` sweeps weights for the paper's classification
instead of building the ``(1, 1, b, ..., b)`` family by hand.
``brute_parse_polynomial`` parses polynomial text by a token list and
recursive descent instead of the compiled term pattern, with the same
errors at the same positions.
``brute_format_monomial`` prints one monomial factor by factor,
``brute_ill_formed_coordinate`` takes each gcd off a coordinate in full,
``grlex_key`` is a per-monomial sort key for the grlex order the library
stores terms and generators in, and ``ideals_equal`` and ``format_weight``
are the plain forms of ``==`` on ideals and of a weight's text.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from wblowup.charts import (
    ChartDescription,
    cartier_index,
    charts,
    discrepancy,
    is_terminal_blowup,
)
from wblowup.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    PolynomialSyntaxError,
    RadicalNotPrimeError,
)
from wblowup.monomials import (
    EqualityVerdict,
    Monomial,
    MonomialIdeal,
    Polynomial,
    colon,
    contains_monomial,
    ideal_power,
    ideal_product,
    minimalize,
    radical,
    saturate,
)
from wblowup.symbolic import PrimaryMonomialIdeal
from wblowup.weights import Weight, _minimal_ideal, weighted_ideal_gens


def brute_box_gens(entries: tuple[int, ...], d: int) -> set[tuple[int, ...]]:
    """Minimal generators at threshold d by exhaustive box enumeration.

    Enumerates every exponent vector with s_i <= ceil(d / a_i) over the
    positive entries, keeps those of weighted degree >= d, and filters to
    the divisibility-minimal ones by ``brute_antichain``.
    """
    n = len(entries)
    k = 0
    while k < n and entries[k] > 0:
        k += 1
    if d <= 0:
        return {(0,) * n}
    if k == 0:
        return set()
    ranges = [range(0, -(-d // entries[i]) + 1) for i in range(k)]
    members = [
        s
        for s in itertools.product(*ranges)
        if sum(a * e for a, e in zip(entries, s)) >= d
    ]
    return {t + (0,) * (n - k) for t in brute_antichain(members)}


def brute_antichain(exps: Iterable[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The divisibility-minimal tuples among ``exps``, by a pairwise scan.

    Sorted by degree, each tuple comes after all its other divisors, so it
    is tested against every tuple kept so far, with no cut of any kind.
    """
    kept: list[tuple[int, ...]] = []
    for s in sorted(set(exps), key=lambda s: (sum(s), s)):
        if not any(all(x <= y for x, y in zip(t, s)) for t in kept):
            kept.append(s)
    return set(kept)


def brute_saturate(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """Saturation (I : m^infinity) by iterating colon until the ideal stops changing."""
    current = ideal
    while True:
        nxt = colon(current, m)
        if nxt == current:
            return current
        current = nxt


def brute_symbolic(primary: PrimaryMonomialIdeal, t: int, max_bound: int = 12) -> MonomialIdeal:
    """Symbolic power as a union of colon ideals with growing exponent bound.

    Takes the union of (I^t : s) over all monomials s supported outside the
    radical with exponents <= B, raising B until the union stabilizes.
    """
    power = ideal_power(primary.ideal, t)
    n = primary.ideal.ambient_dim
    outside = [i for i in range(1, n + 1) if i not in primary.radical_vars]
    if not outside:
        return power
    previous = None
    for bound in range(1, max_bound + 1):
        gens: set[tuple[int, ...]] = set()
        for exps in itertools.product(range(bound + 1), repeat=len(outside)):
            s = [0] * n
            for i, e in zip(outside, exps):
                s[i - 1] = e
            gens.update(g.exponents for g in colon(power, Monomial(tuple(s))).generators)
        union = minimalize((Monomial(e) for e in gens), n)
        if previous is not None and union == previous:
            return union
        previous = union
    raise RuntimeError(f"saturation not stabilized within exponent bound {max_bound}")


def brute_as_primary(ideal: MonomialIdeal) -> frozenset[int]:
    """The radical variables, by forming rad(I) and reading its generators in grlex order.

    Refuses at the first generator of rad(I) with more than one variable.
    Builds no ``PrimaryMonomialIdeal``, whose constructor is the route
    under test.
    """
    if ideal.is_zero() or ideal.is_unit():
        raise InvalidArgumentError("the zero and unit ideals carry no radical data")
    rad = radical(ideal)
    indices: set[int] = set()
    for g in rad.generators:
        support = [i for i, e in enumerate(g.exponents, start=1) if e > 0]
        if len(support) != 1:
            raise RadicalNotPrimeError(
                f"radical generator with support {support} involves more than one variable"
            )
        indices.add(support[0])
    return frozenset(indices)


def brute_has_power_in(ideal: MonomialIdeal, g: Monomial, max_power: int) -> bool:
    """Does some g^j with 1 <= j <= max_power lie in the ideal?"""
    return any(contains_monomial(ideal, g**j) for j in range(1, max_power + 1))


def brute_power_equality(w: Weight, L: int, d: int) -> EqualityVerdict:
    """Power equality by forming the d-th power of the threshold-L ideal.

    Scans the generators of the threshold-d*L ideal in grlex order and
    returns the first one that no generator of the power divides.
    """
    power = ideal_power(weighted_ideal_gens(w, L), d)
    for g in weighted_ideal_gens(w, d * L).generators:
        if not contains_monomial(power, g):
            return EqualityVerdict(g)
    return EqualityVerdict()


def brute_compare_symbolic_power(
    primary: PrimaryMonomialIdeal, t: int
) -> tuple[MonomialIdeal, EqualityVerdict]:
    """Symbolic power and its verdict by forming the ordinary power I^t.

    Saturates I^t by the product of the variables outside the radical,
    checks that every generator of I^t lies in the result, and scans the
    generators of the saturation in grlex order for the first one that no
    generator of I^t divides.
    """
    ordinary = ideal_power(primary.ideal, t)
    n = primary.ideal.ambient_dim
    outside = tuple(0 if i in primary.radical_vars else 1 for i in range(1, n + 1))
    sym = saturate(ordinary, Monomial(outside))
    if not all(contains_monomial(sym, g) for g in ordinary.generators):
        raise AssertionError("the saturation of I^t must contain I^t")
    for g in sym.generators:
        if not contains_monomial(ordinary, g):
            return sym, EqualityVerdict(g)
    return sym, EqualityVerdict()


def slicing_decomposition_check(w: Weight, d: int, j: int) -> bool:
    """Check the two-piece decomposition of the threshold-d ideal along x_j.

    Piece one: the monomials divisible by x_j should be exactly
    x_j * (ideal of threshold d - w_j).  Piece two: the monomials free of
    x_j should be exactly the threshold-d ideal of the weight with entry j
    deleted, compared at the raw threshold (no gcd renormalization of the
    smaller weight).
    """
    if w.n < 2:
        raise InvalidArgumentError("slicing needs at least two variables")
    if not 1 <= j <= w.n:
        raise InvalidArgumentError(f"slice index {j} out of range 1..{w.n}")
    wj = w.entries[j - 1]
    if wj == 0:
        raise InvalidArgumentError(f"slice index {j} has weight zero")
    if d < 0:
        raise InvalidArgumentError(f"threshold must be non-negative, got {d}")
    ideal = weighted_ideal_gens(w, d)
    xj = Monomial.variable(j, w.n)

    # Piece one.  The monomials of the ideal divisible by x_j span the
    # intersection with (x_j), generated by lcm(g, x_j) over the generators.
    inter = minimalize(
        (
            Monomial(tuple(max(a, b) for a, b in zip(g.exponents, xj.exponents)))
            for g in ideal.generators
        ),
        w.n,
    )
    shifted = _minimal_ideal(w.entries, max(d - wj, 0))
    expected = ideal_product(MonomialIdeal(w.n, (xj,)), shifted)
    if not ideals_equal(inter, expected):
        return False

    # Piece two.  Generators free of x_j, with coordinate j deleted, must
    # match the raw threshold-d ideal of the punctured weight.
    punctured_entries = w.entries[: j - 1] + w.entries[j:]
    dropped = [
        Monomial(g.exponents[: j - 1] + g.exponents[j:])
        for g in ideal.generators
        if g.exponents[j - 1] == 0
    ]
    left = minimalize(dropped, w.n - 1)
    right = _minimal_ideal(punctured_entries, d)
    return ideals_equal(left, right)


def substitute_through_chart(chart: ChartDescription, m: Monomial) -> Monomial:
    """Image of a monomial under the chart substitution.

    Monomials map to monomials: output exponents are the integer linear
    combination of the chart map exponents, so no coefficients appear and
    distinct terms stay distinct.
    """
    n = len(chart.chart_map)
    if m.ambient_dim != n:
        raise InvalidArgumentError(
            f"monomial lives in {m.ambient_dim} variables, chart in {n}"
        )
    out = [0] * n
    for s, image in zip(m.exponents, chart.chart_map):
        if s:
            for idx, e in enumerate(image.exponents):
                if e:
                    out[idx] += s * e
    return Monomial(tuple(out))


def brute_pushforward_membership(w: Weight, d: int, f: Polynomial) -> bool:
    """Vanishing order >= d along the exceptional divisor, chart by chart.

    Substitutes the chart map into every term of f and requires the d-th
    power of the exceptional coordinate to divide each image, on every
    chart; the weighted degree is never consulted.
    """
    for chart in charts(w):
        slot = chart.index - 1
        for m, _ in f.terms:
            if substitute_through_chart(chart, m).exponents[slot] < d:
                return False
    return True


def high_length_weights(c: int, max_entry: int) -> list[Weight]:
    """Weights of high length among the sorted ones with c entries and gcd 1.

    Blowing up a smooth codimension-c center with weight a and polarizing by
    f^*A - mE, m = cartier_index(a), a curve in a fiber has nef value
    tau = discrepancy(a) / m.  The weight is kept when tau > c - 2 and the
    blow-up is terminal; every entry is at most ``max_entry``.
    """
    out = []
    for entries in itertools.combinations_with_replacement(range(1, max_entry + 1), c):
        if math.gcd(*entries) != 1:
            continue
        w = Weight(entries)
        if Fraction(discrepancy(w), cartier_index(w)) > c - 2 and is_terminal_blowup(w):
            out.append(w)
    return out


def brute_chart_ages(w: Weight) -> list[list[Fraction]]:
    """Reid-Tai ages of each chart quotient of the blow-up with weight w.

    Chart i is 1/a_i(-a_1, ..., 1, ..., -a_n), built here from the weight;
    element j = 1..a_i - 1 has age sum_l frac(j * twist_l / a_i), summed
    as exact fractions.  A chart of order 1 has no ages.
    """
    out = []
    for i, ai in enumerate(w.nonzero):
        twists = [1 if l == i else -a for l, a in enumerate(w.entries)]
        out.append([sum(Fraction(j * b, ai) % 1 for b in twists) for j in range(1, ai)])
    return out


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
            return self.parse_factors(), Fraction(1)
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


def brute_parse_polynomial(text: str, ambient_dim: int) -> Polynomial:
    """parse_polynomial by a token list and recursive descent.

    The same grammar, errors and positions as the library, reached along a
    different route: the text is first cut into ``(kind, value, position)``
    tokens, and a parser with one method per grammar rule walks them.
    """
    if ambient_dim < 1:
        raise InvalidArgumentError("ambient dimension must be at least 1")
    return _Parser(text, ambient_dim).parse_polynomial()


def grlex_key(m: Monomial) -> tuple:
    """Canonical sort key: total degree ascending, then x1-heavy monomials first.

    Within one degree x1^d precedes x1^(d-1)*x2 precedes ... precedes xn^d.
    All printed output and stored generator tuples follow this order.
    """
    return (m.degree, tuple(-e for e in m.exponents))


def ideals_equal(left: MonomialIdeal, right: MonomialIdeal) -> bool:
    """Equality of ideals in one ring: canonical generators make it ``==``."""
    if left.ambient_dim != right.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {left.ambient_dim} vs {right.ambient_dim}"
        )
    return left == right


def format_weight(w: Weight) -> str:
    """Positive entries only, comma separated."""
    return ",".join(str(a) for a in w.nonzero)


def brute_format_monomial(m: Monomial) -> str:
    """The printed monomial, one factor per positive exponent; "1" if none."""
    if m.is_one():
        return "1"
    parts = []
    for i, e in enumerate(m.exponents, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def brute_ill_formed_coordinate(r: int, twists: Sequence[int]) -> int | None:
    """First 1-based coordinate off which the order and the twists share a factor."""
    for i in range(len(twists)):
        if math.gcd(r, *twists[:i], *twists[i + 1 :]) != 1:
            return i + 1
    return None
