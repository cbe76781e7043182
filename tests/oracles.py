"""Brute-force reference implementations used to pin expected values.

Each oracle recomputes a library answer along an independent route:
exhaustive lattice enumeration instead of pruned search, iterated or
united colons instead of closed-form saturation, explicit power scans
instead of radical membership, formed powers instead of membership
searches (``brute_power_equality`` for thresholds,
``brute_compare_symbolic_power`` for symbolic powers), and chart
substitutions instead of the weighted degree
(``brute_pushforward_membership`` over ``substitute_through_chart``).
They are deliberately slow and simple.  ``slicing_decomposition_check``
is a structural identity rather than a second route: it cuts a threshold
ideal along one variable and compares both pieces with smaller thresholds.
``high_length_weights`` sweeps weights for the paper's classification
instead of building the ``(1, 1, b, ..., b)`` family by hand.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from wblowup.charts import (
    ChartDescription,
    cartier_index,
    charts,
    discrepancy,
    is_terminal_blowup,
)
from wblowup.errors import InvalidArgumentError
from wblowup.monomials import (
    EqualityVerdict,
    Monomial,
    MonomialIdeal,
    Polynomial,
    colon,
    contains_monomial,
    ideal_power,
    ideal_product,
    ideals_equal,
    minimalize,
    saturate,
)
from wblowup.symbolic import PrimaryMonomialIdeal
from wblowup.weights import Weight, _minimal_ideal, weighted_ideal_gens


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
    for chart in charts(w).charts:
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
