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
from operator import le, sub
from typing import Optional

from .errors import InvalidArgumentError, InvalidWeightError, ZeroPolynomialError
from .monomials import (
    EqualityVerdict,
    Monomial,
    MonomialIdeal,
    Polynomial,
    grlex_key,
    ideal_product,
    ideals_equal,
    minimalize,
)

__all__ = [
    "Weight",
    "monomial_weight",
    "sigma_wt",
    "weighted_ideal_gens",
    "power_equality",
    "find_normality_index",
    "slicing_decomposition_check",
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
        k = 0
        while k < len(entries) and entries[k] > 0:
            k += 1
        if k == 0:
            raise InvalidWeightError("leading weight entries must be positive")
        if any(e != 0 for e in entries[k:]):
            raise InvalidWeightError(
                f"positive entries must precede the zero entries, got {entries}"
            )
        if any(e < 0 for e in entries):
            raise InvalidWeightError(f"weight entries must be non-negative, got {entries}")
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
            if e == 0:
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
    """Exponent vectors of the minimal monomials of weighted degree >= d.

    Accepts any entry vector shaped (positives..., zeros...); no gcd
    normalization is assumed, so callers may pass raw thresholds.  A vector
    s is minimal exactly when its weight lands in [d, d + min of the weights
    of its support), i.e. dropping any single present variable falls below
    the threshold.  The search never leaves the box s_i <= ceil(d / a_i).
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
    out: list[tuple[int, ...]] = []
    s = [0] * n
    unbounded = d + max(a) + 1  # sentinel above any reachable cap

    def rec(i: int, acc: int, cap: int) -> None:
        # cap = d + min weight among variables already present (sentinel if none).
        if acc >= d:
            if acc < cap:
                out.append(tuple(s))
            return  # any extension re-crosses the threshold and loses minimality
        if i == k:
            return
        rec(i + 1, acc, cap)
        ai = a[i]
        new_cap = min(cap, d + ai)
        weight = acc + ai
        t = 1
        while weight < new_cap:
            s[i] = t
            rec(i + 1, weight, new_cap)
            t += 1
            weight += ai
        s[i] = 0

    rec(0, 0, unbounded)
    return out


@lru_cache(maxsize=None)
def _minimal_ideal(entries: tuple[int, ...], d: int) -> MonomialIdeal:
    exps = _minimal_generator_exponents(entries, d)
    gens = tuple(sorted((Monomial(e) for e in exps), key=grlex_key))
    return MonomialIdeal(len(entries), gens)


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
    is decided generator by generator without forming the power: a monomial
    e lies in the t-th power when t = 1 and its weight is >= L, or when
    t > 1 and some minimal generator h of the threshold-L ideal divides e
    with e / h in the (t-1)-th power.  Branches whose weight falls below
    t*L are cut at once, and answers are memoised on (e, t) for the length
    of one call.  The generators of the scaled-threshold ideal are walked
    in grlex order, so on NOT_EQUAL the witness is the first one the power
    misses.
    """
    if L < 1:
        raise InvalidArgumentError(f"threshold L must be positive, got {L}")
    if d < 1:
        raise InvalidArgumentError(f"power exponent must be positive, got {d}")
    if d == 1:
        return EqualityVerdict(True, None)
    # Generators involve only the positive-weight variables, so the search
    # runs on exponent vectors truncated to those.
    k = w.k
    base = [
        (g.exponents[:k], monomial_weight(w, g))
        for g in weighted_ideal_gens(w, L).generators
    ]
    memo: dict[tuple[tuple[int, ...], int], bool] = {}

    def in_power(e: tuple[int, ...], weight: int) -> bool:
        # Depth first over one generator per factor.  Each frame holds a
        # monomial, its weight, its power and its untried generators; an
        # explicit stack keeps a large d clear of the recursion limit.
        stack = [(e, weight, d, iter(base))]
        while stack:
            e, weight, t, untried = stack[-1]
            for h, h_weight in untried:
                rest_weight = weight - h_weight
                if rest_weight < (t - 1) * L or not all(map(le, h, e)):
                    continue
                if t == 2:
                    found = True
                else:
                    rest = tuple(map(sub, e, h))
                    found = memo.get((rest, t - 1))
                    if found is None:
                        stack.append((rest, rest_weight, t - 1, iter(base)))
                        break
                if found:
                    # Every monomial on the stack is a member through this one.
                    for frame in stack:
                        memo[frame[0], frame[2]] = True
                    return True
            else:
                memo[e, t] = False
                stack.pop()
        return False

    for g in weighted_ideal_gens(w, d * L).generators:
        if not in_power(g.exponents[:k], monomial_weight(w, g)):
            return EqualityVerdict(False, g)
    return EqualityVerdict(True, None)


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
