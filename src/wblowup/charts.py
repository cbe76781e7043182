"""Charts of weighted blow-ups and cyclic quotient terminality.

Blowing up the origin-centered coordinate subspace with a weight
(a1, ..., ak, 0, ..., 0) covers the result with one chart per positive
entry, and ``charts(w)`` lists them in that order; each chart is a value
of its own, whose index names its exceptional coordinate.  Chart i is the
quotient of affine n-space by a cyclic group of order a_i acting
diagonally with twists (-a1, ..., 1, ..., -ak, 0, ..., 0)
(the 1 sits in slot i, everything reduced mod a_i).  Its blow-down map,
recorded in ``chart_map``, follows one rule: x_i -> u_i^(a_i), and
x_j -> u_j * u_i^(a_j) for j != i.  The terminality verdicts read only the
quotients and build no map.  The exceptional divisor is cut out by the
i-th chart coordinate, and a polynomial vanishes along it to the order of
its weighted degree, so ``pushforward_membership`` answers by
``sigma_wt``; tests/oracles.py checks this chart by chart.

Terminality of a cyclic quotient is decided by the Reid-Tai criterion:
every nontrivial group element must have age strictly greater than 1,
where the age of element j is sum_i frac(j * twist_i / order), read off
one pass of the integer sums r * age.  ``_terminal_ages`` returns the
verdict with those sums, not with strings, and ``_age_texts`` prints any
slice of them as reduced fractions, so the command line formats the ages
a block at a time as it writes them.  A ``CyclicQuotientType`` is well
formed by construction, so the pass checks nothing.  Chart quotients are
always well formed, so forming them never raises ``ILL_FORMED_ACTION``:
off any coordinate but i, chart i keeps its twist 1, and off coordinate i
the gcd is gcd(a_i, a_j : j != i) = gcd(a) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, count, repeat
from operator import index, mod
from typing import Iterable, Iterator, Sequence

from .errors import IllFormedActionError, InvalidArgumentError, ZeroPolynomialError
from .monomials import Monomial, Polynomial, _integer, _same_dim
from .weights import Weight, sigma_wt

__all__ = [
    "CyclicQuotientType",
    "ChartDescription",
    "charts",
    "cartier_index",
    "reid_tai_ages",
    "is_terminal",
    "is_terminal_blowup",
    "pushforward_membership",
    "discrepancy",
]


@dataclass(frozen=True, slots=True, init=False)
class CyclicQuotientType:
    """A well-formed cyclic quotient singularity: group order and diagonal twists.

    Twists are stored reduced mod the order, so two descriptions of the
    same action compare equal.  Order 1 is the trivial (smooth) quotient.
    The order and the twists must be integers (anything with
    ``__index__``); floats, fractions and strings are refused rather than
    rounded.  The action must be well formed: for every coordinate i the
    order and the twists off i must be coprime, or some nontrivial element
    fixes a hyperplane and Reid-Tai does not apply; such an action is
    refused with ILL_FORMED_ACTION, naming the first such coordinate.  The
    gcd off i joins a prefix gcd with a suffix gcd, so the check is linear
    in the number of coordinates.
    """

    order: int
    twists: tuple[int, ...]

    def __init__(self, order: int, twists: Iterable[int]) -> None:
        try:
            r = index(order)
            ints = tuple(map(index, twists))
        except TypeError:
            raise InvalidArgumentError(
                f"group order and twists must be integers, got {order!r} and {twists!r}"
            ) from None
        if r < 1:
            raise InvalidArgumentError(f"group order must be positive, got {r}")
        if not ints:
            raise InvalidArgumentError("a quotient needs at least one coordinate")
        reduced = tuple(b % r for b in ints)
        # gcd(r, twists[:i]) and gcd(twists[i + 1 :]), for each i.
        before = accumulate(reduced, math.gcd, initial=r)
        after = [*accumulate(reversed(reduced), math.gcd, initial=0)][-2::-1]
        for i, g in enumerate(map(math.gcd, before, after)):
            if g != 1:
                raise IllFormedActionError(
                    f"order {r} shares a factor with the twists off coordinate x{i + 1}, "
                    f"twists {reduced}"
                )
        object.__setattr__(self, "order", r)
        object.__setattr__(self, "twists", reduced)


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


def _chart_quotients(w: Weight) -> Iterator[CyclicQuotientType]:
    """Chart i's quotient 1/a_i(-a_1, ..., 1, ..., -a_n), in chart order."""
    twists = [-a for a in w.entries]
    for i, ai in enumerate(w.nonzero):
        yield CyclicQuotientType(ai, (*twists[:i], 1, *twists[i + 1 :]))


def charts(w: Weight) -> tuple[ChartDescription, ...]:
    """The charts of the blow-up of x1 = ... = xk = 0 with weight w, chart i at index i - 1."""
    n = w.n
    descriptions = []
    for i, q in enumerate(_chart_quotients(w)):
        images = []
        for j, aj in enumerate(w.entries):
            exps = [0] * n
            exps[j] = 1
            exps[i] = aj  # x_j -> u_j * u_i^(a_j); for j == i this leaves u_i^(a_i)
            images.append(Monomial(tuple(exps)))
        descriptions.append(ChartDescription(i + 1, q, tuple(images)))
    return tuple(descriptions)


def cartier_index(w: Weight) -> int:
    """lcm of the positive weight entries: the least multiple of E Cartier on every chart."""
    return math.lcm(*w.nonzero)


def reid_tai_ages(q: CyclicQuotientType) -> tuple[Fraction, ...]:
    """Ages of the nontrivial group elements, as exact rationals.

    Element j of the cyclic group scales coordinate i by a primitive root
    of unity to the power j * twist_i; its age adds up the normalized
    rotation amounts frac(j * twist_i / order).  Defined for every
    quotient of order >= 2.
    """
    r = _integer(q.order, "group order", 2)
    return tuple(Fraction(s, r) for s in _age_sums(q))


def _terminal_ages(q: CyclicQuotientType) -> tuple[bool, list[int]]:
    """The :func:`is_terminal` verdict and the integer age sums r * age, from one pass.

    The sums stay ints; :func:`_age_texts` turns any slice of them into the
    printed ages.
    """
    sums = list(_age_sums(q))
    return all(map(q.order.__lt__, sums)), sums


def _age_texts(r: int, sums: Sequence[int]) -> list[str]:
    """The ages s / r of any slice of age sums, each as ``str`` prints its Fraction."""
    suffix = f"/{r}"
    ages = [text + suffix for text in map(str, sums)]
    # Only the sums that share a factor with r print reduced.
    for j in compress(count(), map((1).__ne__, map(math.gcd, sums, repeat(r)))):
        s, g = sums[j], math.gcd(sums[j], r)
        ages[j] = f"{s // g}/{r // g}" if g < r else str(s // r)
    return ages


def is_terminal(q: CyclicQuotientType) -> bool:
    """Reid-Tai criterion: terminal iff every age is strictly above 1.

    Compares sum_i (j * twist_i mod order) > order in integers and stops at
    the first j that fails; order 1 has no such j, so it is terminal.  The
    quotient is well formed by construction, so no action is refused here.
    """
    return all(map(q.order.__lt__, _age_sums(q)))


def _age_sums(q: CyclicQuotientType) -> Iterator[int]:
    """r times each age: sum_i (j * twist_i mod r), lazily, for j = 1..r-1.

    Zero twists add nothing, so only the nonzero ones get a row.  A
    well-formed quotient of order r >= 2 has one: with all twists zero the
    gcd off any coordinate is r.  Order 1 has no j, and no row.
    """
    r = q.order
    # Row i lists j * twist_i mod r for j = 1..r-1.
    rows = [map(mod, range(b, b * r, b), repeat(r)) for b in q.twists if b]
    return map(sum, zip(*rows))


def is_terminal_blowup(w: Weight) -> bool:
    """True iff every chart quotient passes the Reid-Tai test."""
    return all(map(is_terminal, _chart_quotients(w)))


def pushforward_membership(w: Weight, d: int, f: Polynomial) -> bool:
    """Does f vanish to order >= d along the exceptional divisor?

    The order of f along E is its weighted degree.  On chart i the
    blow-down map sends x_i to u_i^(a_i) and each other x_j to
    u_j * u_i^(a_j), so u_i divides the image of x^s exactly
    sum_j a_j * s_j = wt(x^s) times.  The substitution is injective on
    monomials, so no terms of f cancel, and the order of f along E is the
    minimum of wt over its terms: f qualifies iff sigma_wt(w, f) >= d.
    The order d must be a non-negative integer.
    """
    _same_dim(w.n, f.ambient_dim)
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no vanishing order")
    return sigma_wt(w, f) >= _integer(d, "order", 0)


def discrepancy(w: Weight) -> int:
    """Discrepancy of the exceptional divisor: sum of the entries minus 1."""
    return sum(w.entries) - 1
