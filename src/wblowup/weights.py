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
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterable, Optional

from .errors import InvalidWeightError, ZeroPolynomialError
from .monomials import (
    EqualityVerdict,
    Monomial,
    MonomialIdeal,
    Polynomial,
    _ideal_from_grlex,
    _integer,
    _power_verdict,
    _same_dim,
    _wrong_type,
)

__all__ = [
    "Weight",
    "monomial_weight",
    "sigma_wt",
    "weighted_ideal_gens",
    "power_equality",
    "find_normality_index",
]


@dataclass(frozen=True, slots=True, init=False)
class Weight:
    """Weight vector (a1, ..., ak, 0, ..., 0) on n variables.

    The entries are integers, the positive ones come first, at least one is
    required, and their gcd must be 1 (a common factor would rescale every
    threshold, so normalized vectors keep the degree bookkeeping
    unambiguous).
    """

    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int]) -> None:
        # One pass of C-level builtins.  math.gcd refuses every non-integer
        # entry, and the zero entries leave it unchanged, so it is the one
        # integer check and free on a valid weight.  Once the entries are
        # non-negative, the positive ones come first exactly when the last
        # entries.count(0) of them are zero, so k counts the leading
        # positive entries and no loop walks them.
        try:
            exps = tuple(entries)
            gcd = math.gcd(*exps)
        except TypeError:
            raise InvalidWeightError(f"non-integer weight entry in {entries!r}") from None
        if not exps:
            raise InvalidWeightError("a weight needs at least one entry")
        if exps[0] <= 0:
            raise InvalidWeightError("leading weight entries must be positive")
        if min(exps) < 0:
            raise InvalidWeightError(f"weight entries must be non-negative, got {exps}")
        k = len(exps) - exps.count(0)
        if any(exps[k:]):
            raise InvalidWeightError(f"positive entries must precede the zero entries, got {exps}")
        if gcd != 1:
            raise InvalidWeightError(f"gcd of the positive entries must be 1, got {exps[:k]}")
        object.__setattr__(self, "entries", exps)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def k(self) -> int:
        """Number of positive entries."""
        return len(self.entries) - self.entries.count(0)

    @property
    def nonzero(self) -> tuple[int, ...]:
        return self.entries[: self.k]


def monomial_weight(w: Weight, m: Monomial) -> int:
    """Weighted degree of a single monomial."""
    try:
        entries, exps = w.entries, m.exponents
    except AttributeError:
        raise _wrong_type("monomial_weight", "a Weight and a Monomial", w, m) from None
    _same_dim(len(entries), len(exps))
    return sum(map(mul, entries, exps))


def sigma_wt(w: Weight, f: Polynomial) -> int:
    """Weighted degree of a polynomial: the minimum over its terms.

    Undefined (an error) for the zero polynomial, which vanishes to every
    order.
    """
    try:
        entries, terms = w.entries, f.terms
    except AttributeError:
        raise _wrong_type("sigma_wt", "a Weight and a Polynomial", w, f) from None
    _same_dim(len(entries), f.ambient_dim)
    if not terms:
        raise ZeroPolynomialError("the zero polynomial has no weighted degree")
    return min(sum(map(mul, entries, m.exponents)) for m, _ in terms)


def _minimal_generator_exponents(entries: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the minimal monomials of weighted degree >= d, in grlex order.

    Accepts any entry vector shaped (positives..., zeros...); no gcd
    normalization is assumed, so callers may pass raw thresholds.  A vector
    s is minimal exactly when its weight lands in [d, d + min of the weights
    of its support), i.e. dropping any single present variable falls below
    the threshold.

    With three or more positive entries the search visits the positive
    coordinates heaviest first (a stable sort by entry), writing each
    exponent into its own slot.  All but the last two visited coordinates
    form the prefix, which one flat loop steps like an odometer, so no
    number of entries meets the recursion limit.  Each turn first walks
    the last two for the current prefix, whose weight is below d: for each
    value of the second to last below d, the last exponent is the least
    one reaching d, in closed form, and the value reaching d alone ends
    that walk.  It then steps the last prefix coordinate up by one.  A
    step that lifts the prefix weight to d records the vector, resets
    that coordinate to 0 and carries to the coordinate before it; the
    walk ends when the first coordinate carries.  Every recorded vector
    is minimal: its last visited present coordinate, the step that
    reached d or the closed-form one, is its lightest variable, and the
    vector weighs below d plus that weight.  Every minimal vector is
    recorded: dropping its last visited present variable falls below d,
    so each proper prefix of it in visiting order weighs below d and the
    odometer reads all of them.  Each turn records a vector and each carry
    records one, so the cost is at most k steps per generator.  The
    vectors go into a list per degree, each sorted in descending lex order
    (one linear pass when the entries are already non-increasing, as the
    search meets them in lex order of the visited coordinates), and joined
    in degree order: grlex order.  Two positive entries take one loop over
    the heavier one instead, whose degree never rises from one step to the
    next, so a reversal or one stable sort gives grlex order.
    """
    n = len(entries)
    k = n - entries.count(0)
    if d <= 0:
        return [(0,) * n]
    if k == 0:
        return []
    if k == 1:
        return [(-(-d // entries[0]),) + entries[1:]]
    if k == 2:
        # Loop over the heavier variable and close with the least exponent
        # on the lighter one: every step is minimal, since dropping either
        # variable loses at least the lighter weight, and the degree never
        # rises from one step to the next.  Ties come in ascending order of
        # the loop variable, which grlex wants for x2 and reversed for x1.
        a1, a2 = entries[:2]
        tail = entries[2:]
        if a1 >= a2:
            out = [(t, -((t * a1 - d) // a2)) + tail for t in range(-(-d // a1))]
            out.append((-(-d // a1), 0) + tail)
            out.reverse()
        else:
            out = [(-((u * a2 - d) // a1), u) + tail for u in range(-(-d // a2))]
            out.append((0, -(-d // a2)) + tail)
            out.sort(key=sum)
        return out
    order = sorted(range(k), key=entries.__getitem__, reverse=True)
    *prefix, pen, last = order
    a_pen, a_last = entries[pen], entries[last]
    s = [0] * n
    # Keyed by the degrees that occur: a list per possible degree would be
    # ceil(d / a_last) lists, far more than the vectors for weights like
    # (10000, 10001, 1).
    by_degree: defaultdict[int, list[tuple[int, ...]]] = defaultdict(list)
    acc = deg = 0  # weight (below d) and degree of the prefix coordinates
    while True:
        t = 0
        for weight in range(acc, d, a_pen):
            u = -((weight - d) // a_last)
            s[pen] = t
            s[last] = u
            by_degree[deg + t + u].append(tuple(s))
            t += 1
        s[pen] = t
        s[last] = 0
        by_degree[deg + t].append(tuple(s))
        s[pen] = 0
        for i in reversed(prefix):
            s[i] += 1
            acc += entries[i]
            deg += 1
            if acc < d:
                break
            by_degree[deg].append(tuple(s))  # any extension loses minimality
            acc -= s[i] * entries[i]
            deg -= s[i]
            s[i] = 0
        else:
            break
    out = []
    for _, bucket in sorted(by_degree.items()):
        bucket.sort(reverse=True)
        out += bucket
    return out


# Measured on the benchmark's seed 1: a membership pass asks for 167
# distinct thresholds in 240 asks, and a normality pass for 389 in 558.  The
# normality pass reads 169 hits and 389 misses both at 256 entries and with
# no bound: each threshold it asks again is still held, so the bound makes
# nothing be enumerated twice.
@lru_cache(maxsize=256)
def _minimal_ideal(entries: tuple[int, ...], d: int) -> MonomialIdeal:
    return _ideal_from_grlex(len(entries), _minimal_generator_exponents(entries, d))


def weighted_ideal_gens(w: Weight, d: int) -> MonomialIdeal:
    """Minimal generators of the ideal of weighted degree >= d.

    Threshold 0 gives the unit ideal.  Generators only involve variables
    with positive weight: a zero-weight variable can always be dropped from
    a generator without changing its weighted degree.  The threshold must
    be an integer.
    """
    return _minimal_ideal(w.entries, _integer(d, "threshold", 0))


def power_equality(w: Weight, L: int, d: int) -> EqualityVerdict:
    """Compare the d-th power of the threshold-L ideal with the threshold-d*L ideal.

    The inclusion power <= scaled-threshold holds by construction: a product
    of d monomials of weight >= L has weight >= d*L.  The reverse inclusion
    is decided without forming the power, by the membership search shared
    with the symbolic powers (``monomials._power_verdict``), with the weight
    as its linear weight.  Branches are cut below t times the least weight
    of a generator of the threshold-L ideal (the generators are tried
    lightest first, so each cut is one bisection), and the search takes its
    last factor for granted once the rest passes that cut, because the
    threshold-L ideal holds every monomial of weight >= L; for a general
    ideal it tests that factor by divisibility.  The generators of the
    scaled-threshold ideal are walked in grlex order, so on NOT_EQUAL the
    witness is the first one the power misses.

    L and d must be positive integers.  Past those checks and the d = 1
    shortcut, verdicts are cached for the process per (weight entries, L,
    d), so a point that ``find_normality_index`` walked is answered again
    without a search.
    """
    L = _integer(L, "threshold L", 1)
    d = _integer(d, "power exponent", 1)
    if d == 1:
        return EqualityVerdict()
    return _power_equality(w.entries, L, d)


# The normality benchmark asks about 280 distinct (entries, L, d) per pass,
# most of them twice: once inside a find and once on their own.  512 holds
# a pass with room.  The command line asks one point or one find per
# process, so it gains nothing.  A verdict is a few tuples.
@lru_cache(maxsize=512)
def _power_equality(entries: tuple[int, ...], L: int, d: int) -> EqualityVerdict:
    # Generators involve only the positive-weight variables.
    base = _minimal_ideal(entries, L).exponents
    target = _minimal_ideal(entries, d * L).exponents
    nonzero = entries[: len(entries) - entries.count(0)]
    return _power_verdict(target, base, nonzero, d, threshold=True)


def find_normality_index(w: Weight, d_max: int, L_max: int) -> Optional[int]:
    """Smallest L <= L_max whose powers match every scaled threshold up to d_max.

    Returns None when no L in range is certified.  The certificate only
    covers exponents 2..d_max; exponent 1 is trivially fine.  Both bounds
    must be integers.  The verdicts come from the cache ``power_equality``
    reads, so the points walked here are not searched twice.
    """
    d_max = _integer(d_max, "d_max", 2)
    L_max = _integer(L_max, "L_max", 1)
    for L in range(1, L_max + 1):
        if all(_power_equality(w.entries, L, d).equal for d in range(2, d_max + 1)):
            return L
    return None
