"""Weight vectors and the monomial ideals they grade.

A weight assigns each variable a non-negative integer, positive entries
first: (a1, ..., ak, 0, ..., 0) with gcd(a1, ..., ak) = 1.  The weighted
degree (sigma-weight) of a monomial x1^s1 * ... * xn^sn is sum(si * ai);
a polynomial takes the minimum over its terms, so the weight of a nonzero
polynomial measures its vanishing order along the weighted exceptional
divisor.  For each threshold d >= 0 the monomials of weighted degree >= d
span an ideal; this module computes its minimal generators and decides when
taking d-th powers of the threshold-L ideal recovers the threshold-d*L
ideal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import InvalidArgumentError, InvalidWeightError, ZeroPolynomialError
from .monomials import (
    EqualityVerdict,
    Monomial,
    MonomialIdeal,
    Polynomial,
    _ideal_from_grlex,
    _power_verdict,
)

__all__ = [
    "Weight",
    "monomial_weight",
    "sigma_wt",
    "weighted_ideal_gens",
    "power_equality",
    "find_normality_index",
]


@dataclass(frozen=True, slots=True)
class Weight:
    """Weight vector (a1, ..., ak, 0, ..., 0) on n variables.

    The positive entries come first, at least one is required, and their gcd
    must be 1 (a common factor would rescale every threshold, so normalized
    vectors keep the degree bookkeeping unambiguous).
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 1:
            raise InvalidWeightError("a weight needs at least one entry")
        k = self.k
        if k == 0:
            raise InvalidWeightError("leading weight entries must be positive")
        if min(entries) < 0:
            raise InvalidWeightError(f"weight entries must be non-negative, got {entries}")
        if any(e != 0 for e in entries[k:]):
            raise InvalidWeightError(
                f"positive entries must precede the zero entries, got {entries}"
            )
        if math.gcd(*entries[:k]) != 1:
            raise InvalidWeightError(
                f"gcd of the positive entries must be 1, got {entries[:k]}"
            )

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def k(self) -> int:
        """Number of positive entries."""
        count = 0
        for e in self.entries:
            if e <= 0:
                break
            count += 1
        return count

    @property
    def nonzero(self) -> tuple[int, ...]:
        return self.entries[: self.k]


def monomial_weight(w: Weight, m: Monomial) -> int:
    """Weighted degree of a single monomial."""
    if m.ambient_dim != w.n:
        raise InvalidArgumentError(
            f"monomial lives in {m.ambient_dim} variables, weight in {w.n}"
        )
    return sum(a * s for a, s in zip(w.entries, m.exponents))


def sigma_wt(w: Weight, f: Polynomial) -> int:
    """Weighted degree of a polynomial: the minimum over its terms.

    Undefined (an error) for the zero polynomial, which vanishes to every
    order.
    """
    if f.ambient_dim != w.n:
        raise InvalidArgumentError(
            f"polynomial lives in {f.ambient_dim} variables, weight in {w.n}"
        )
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no weighted degree")
    return min(monomial_weight(w, m) for m, _ in f.terms)


def _minimal_generator_exponents(entries: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the minimal monomials of weighted degree >= d, in lex order.

    Accepts any entry vector shaped (positives..., zeros...); no gcd
    normalization is assumed, so callers may pass raw thresholds.  A vector
    s is minimal exactly when its weight lands in [d, d + min of the weights
    of its support), i.e. dropping any single present variable falls below
    the threshold.  The search fixes the first k - 1 positive coordinates
    depth first, each in ascending order, and never leaves the box
    s_i <= ceil(d / a_i).  The last positive coordinate needs no search:
    below the threshold only its smallest exponent reaching d can be
    minimal, so each prefix costs one step and yields at most one vector.
    """
    n = len(entries)
    k = 0
    while k < n and entries[k] > 0:
        k += 1
    if d <= 0:
        return [(0,) * n]
    if k == 0:
        return []
    a = entries[:k]
    last = k - 1
    a_last = a[last]
    out: list[tuple[int, ...]] = []
    s = [0] * n
    unbounded = d + max(a) + 1  # sentinel above any reachable cap

    def rec(i: int, acc: int, cap: int) -> None:
        # cap = d + min weight among variables already present (sentinel if
        # none); acc < d on entry, so acc + t * a_last < d + a_last below.
        if i == last:
            t = -((acc - d) // a_last)
            if acc + t * a_last < cap:
                s[last] = t
                out.append(tuple(s))
                s[last] = 0
            return
        rec(i + 1, acc, cap)
        ai = a[i]
        new_cap = min(cap, d + ai)
        weight = acc + ai
        t = 1
        while weight < new_cap:
            s[i] = t
            if weight >= d:
                out.append(tuple(s))  # any extension loses minimality
                break
            rec(i + 1, weight, new_cap)
            t += 1
            weight += ai
        s[i] = 0

    rec(0, 0, unbounded)
    return out


@lru_cache(maxsize=256)
def _minimal_ideal(entries: tuple[int, ...], d: int) -> MonomialIdeal:
    exps = _minimal_generator_exponents(entries, d)
    # Lex order reversed, then a stable sort by degree, is grlex order.
    exps.reverse()
    exps.sort(key=sum)
    return _ideal_from_grlex(len(entries), exps)


def weighted_ideal_gens(w: Weight, d: int) -> MonomialIdeal:
    """Minimal generators of the ideal of weighted degree >= d.

    Threshold 0 gives the unit ideal.  Generators only involve variables
    with positive weight: a zero-weight variable can always be dropped from
    a generator without changing its weighted degree.
    """
    if d < 0:
        raise InvalidArgumentError(f"threshold must be non-negative, got {d}")
    return _minimal_ideal(w.entries, d)


def power_equality(w: Weight, L: int, d: int) -> EqualityVerdict:
    """Compare the d-th power of the threshold-L ideal with the threshold-d*L ideal.

    The inclusion power <= scaled-threshold holds by construction: a product
    of d monomials of weight >= L has weight >= d*L.  The reverse inclusion
    is decided without forming the power, by the membership search shared
    with the symbolic powers (``monomials._power_verdict``), with the weight
    as its linear weight.  Branches are cut below t times the least weight
    of a generator of the threshold-L ideal, and the search takes its last
    factor for granted once the rest passes that cut, because the
    threshold-L ideal holds every monomial of weight >= L; for a general
    ideal it tests that factor by divisibility.  The generators of the
    scaled-threshold ideal are walked in grlex order, so on NOT_EQUAL the
    witness is the first one the power misses.
    """
    if L < 1:
        raise InvalidArgumentError(f"threshold L must be positive, got {L}")
    if d < 1:
        raise InvalidArgumentError(f"power exponent must be positive, got {d}")
    if d == 1:
        return EqualityVerdict(True, None)
    # Generators involve only the positive-weight variables.
    base = weighted_ideal_gens(w, L).generators
    return _power_verdict(weighted_ideal_gens(w, d * L), base, w.nonzero, d, threshold=True)


def find_normality_index(w: Weight, d_max: int, L_max: int) -> Optional[int]:
    """Smallest L <= L_max whose powers match every scaled threshold up to d_max.

    Returns None when no L in range is certified.  The certificate only
    covers exponents 2..d_max; exponent 1 is trivially fine.
    """
    if d_max < 2:
        raise InvalidArgumentError(f"d_max must be at least 2, got {d_max}")
    if L_max < 1:
        raise InvalidArgumentError(f"L_max must be positive, got {L_max}")
    for L in range(1, L_max + 1):
        if all(power_equality(w, L, d).equal for d in range(2, d_max + 1)):
            return L
    return None
