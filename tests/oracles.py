"""Brute-force reference implementations used to pin expected values.

Each oracle recomputes a library answer along an independent route:
exhaustive lattice enumeration instead of pruned search, iterated or
united colons instead of closed-form saturation, explicit power scans
instead of radical membership, and formed powers instead of membership
searches (``brute_power_equality`` for thresholds,
``brute_compare_symbolic_power`` for symbolic powers).  They are
deliberately slow and simple.
"""

from __future__ import annotations

import itertools

from wblowup.monomials import (
    EqualityVerdict,
    Monomial,
    MonomialIdeal,
    colon,
    contains_monomial,
    ideal_power,
    minimalize,
    saturate,
)
from wblowup.symbolic import PrimaryMonomialIdeal
from wblowup.weights import Weight, weighted_ideal_gens


def brute_box_gens(entries: tuple[int, ...], d: int) -> set[tuple[int, ...]]:
    """Minimal generators at threshold d by exhaustive box enumeration.

    Enumerates every exponent vector with s_i <= ceil(d / a_i) over the
    positive entries, keeps those of weighted degree >= d, and filters to
    the divisibility-minimal ones by a pairwise scan.
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
    members.sort(key=lambda s: (sum(s), s))
    kept: list[tuple[int, ...]] = []
    for s in members:
        minimal = True
        for t in kept:
            if all(x <= y for x, y in zip(t, s)):
                minimal = False
                break
        if minimal:
            kept.append(s)
    return {t + (0,) * (n - k) for t in kept}


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
            return EqualityVerdict(False, g)
    return EqualityVerdict(True, None)


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
    assert all(contains_monomial(sym, g) for g in ordinary.generators)
    for g in sym.generators:
        if not contains_monomial(ordinary, g):
            return sym, EqualityVerdict(False, g)
    return sym, EqualityVerdict(True, None)
