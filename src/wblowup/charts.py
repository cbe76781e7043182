"""Chart atlases of weighted blow-ups and cyclic quotient terminality.

Blowing up the origin-centered coordinate subspace with a weight
(a1, ..., ak, 0, ..., 0) covers the result with one chart per positive
entry.  Chart i is the quotient of affine n-space by a cyclic group of
order a_i acting diagonally with twists (-a1, ..., 1, ..., -ak, 0, ..., 0)
(the 1 sits in slot i, everything reduced mod a_i), and the blow-down map
is the monomial substitution recorded in ``chart_map``.  The exceptional
divisor is cut out by the i-th chart coordinate.

Terminality of a cyclic quotient is decided by the Reid-Tai criterion:
every nontrivial group element must have age strictly greater than 1,
where the age of element j is sum_i frac(j * twist_i / order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mod

from .errors import IllFormedActionError, InvalidArgumentError, ZeroPolynomialError
from .monomials import Monomial, Polynomial
from .weights import Weight

__all__ = [
    "CyclicQuotientType",
    "ChartDescription",
    "BlowupAtlas",
    "charts",
    "cartier_index",
    "reid_tai_ages",
    "is_terminal",
    "is_terminal_blowup",
    "substitute_through_chart",
    "pushforward_membership",
    "discrepancy",
]


@dataclass(frozen=True, slots=True)
class CyclicQuotientType:
    """Cyclic quotient singularity data: group order and diagonal twists.

    Twists are stored reduced mod the order, so two descriptions of the
    same action compare equal.  Order 1 is the trivial (smooth) quotient.
    """

    order: int
    twists: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise InvalidArgumentError(f"group order must be positive, got {self.order}")
        reduced = tuple(int(b) % self.order for b in self.twists)
        object.__setattr__(self, "twists", reduced)
        if len(reduced) < 1:
            raise InvalidArgumentError("a quotient needs at least one coordinate")

    @property
    def ambient_dim(self) -> int:
        return len(self.twists)


@dataclass(frozen=True, slots=True)
class ChartDescription:
    """One chart of a weighted blow-up.

    ``chart_map`` lists, per output coordinate, the monomial in the chart
    coordinates that the blow-down map substitutes for it.  The exceptional
    divisor is locally the vanishing of chart coordinate ``index``.
    """

    index: int
    quotient: CyclicQuotientType
    chart_map: tuple[Monomial, ...]
    exceptional_var: int


@dataclass(frozen=True, slots=True)
class BlowupAtlas:
    """All charts of one weighted blow-up plus its Cartier index.

    The Cartier index is the lcm of the positive weight entries: the
    smallest multiple of the exceptional divisor that is Cartier on every
    chart.
    """

    weight: Weight
    charts: tuple[ChartDescription, ...]
    cartier_index: int

    def __post_init__(self) -> None:
        k = self.weight.k
        if len(self.charts) != k:
            raise InvalidArgumentError("expected exactly one chart per positive weight entry")
        if self.cartier_index != math.lcm(*self.weight.nonzero):
            raise InvalidArgumentError("Cartier index must be the lcm of the positive entries")
        for pos, chart in enumerate(self.charts, start=1):
            if chart.index != pos or chart.exceptional_var != pos:
                raise InvalidArgumentError("charts must be listed in coordinate order")
            if chart.quotient.order != self.weight.entries[pos - 1]:
                raise InvalidArgumentError("chart quotient order must match its weight entry")

    @property
    def ambient_dim(self) -> int:
        return self.weight.n


def charts(w: Weight) -> BlowupAtlas:
    """Atlas of the blow-up of x1 = ... = xk = 0 with the given weight."""
    n, k = w.n, w.k
    descriptions = []
    for i in range(1, k + 1):
        ai = w.entries[i - 1]
        twists = tuple(
            (1 if j == i else -w.entries[j - 1]) % ai for j in range(1, n + 1)
        )
        images = []
        for j in range(1, n + 1):
            exps = [0] * n
            if j == i:
                exps[i - 1] = ai
            elif j <= k:
                exps[j - 1] = 1
                exps[i - 1] = w.entries[j - 1]
            else:
                exps[j - 1] = 1
            images.append(Monomial(tuple(exps)))
        descriptions.append(
            ChartDescription(i, CyclicQuotientType(ai, twists), tuple(images), i)
        )
    return BlowupAtlas(w, tuple(descriptions), math.lcm(*w.nonzero))


def cartier_index(w: Weight) -> int:
    """lcm of the positive weight entries."""
    return math.lcm(*w.nonzero)


def reid_tai_ages(q: CyclicQuotientType) -> tuple[Fraction, ...]:
    """Ages of the nontrivial group elements, as exact rationals.

    Element j of the cyclic group scales coordinate i by a primitive root
    of unity to the power j * twist_i; its age adds up the normalized
    rotation amounts frac(j * twist_i / order).  Defined for order >= 2.
    """
    r = q.order
    if r < 2:
        raise InvalidArgumentError("ages need a nontrivial group, order >= 2")
    return tuple(
        Fraction(sum((j * b) % r for b in q.twists), r) for j in range(1, r)
    )


def is_terminal(q: CyclicQuotientType) -> bool:
    """Reid-Tai criterion: terminal iff every age is strictly above 1.

    The trivial quotient (order 1) is smooth, hence terminal.  Otherwise
    the action must be well formed: for every coordinate i the order and
    the twists off coordinate i must be coprime, or some nontrivial element
    fixes a hyperplane and the criterion does not apply.  Ages are compared
    in integers, sum_i (j * twist_i mod order) > order, stopping at the
    first element j that fails.
    """
    r = q.order
    if r == 1:
        return True
    twists = q.twists
    for i in range(len(twists)):
        if math.gcd(r, *twists[:i], *twists[i + 1 :]) != 1:
            raise IllFormedActionError(
                f"order {r} shares a factor with the twists off coordinate x{i + 1}, "
                f"twists {twists}"
            )
    # Row i lazily lists j * twist_i mod r for j = 1..r-1 (a zero twist adds
    # nothing); summing the rows column by column gives r times each age.
    rows = [map(mod, range(b, b * r, b), repeat(r)) for b in twists if b]
    return all(map(r.__lt__, map(sum, zip(*rows))))


def is_terminal_blowup(w: Weight) -> bool:
    """True iff every chart quotient passes the Reid-Tai test."""
    return all(is_terminal(chart.quotient) for chart in charts(w).charts)


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


def pushforward_membership(w: Weight, d: int, f: Polynomial) -> bool:
    """Does f vanish to order >= d along the exceptional divisor?

    Decided chart by chart: substitute the chart map into f and require the
    d-th power of the exceptional coordinate to divide every resulting
    term.  This never consults the weighted degree directly, so it serves
    as an independent membership route.
    """
    if f.ambient_dim != w.n:
        raise InvalidArgumentError(
            f"polynomial lives in {f.ambient_dim} variables, weight in {w.n}"
        )
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no vanishing order")
    if d < 0:
        raise InvalidArgumentError(f"order must be non-negative, got {d}")
    for chart in charts(w).charts:
        slot = chart.exceptional_var - 1
        for m, _ in f.terms:
            if substitute_through_chart(chart, m).exponents[slot] < d:
                return False
    return True


def discrepancy(w: Weight) -> int:
    """Discrepancy of the exceptional divisor: sum of the entries minus 1."""
    return sum(w.entries) - 1
