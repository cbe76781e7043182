"""Answers computed apart from the library, used to check every benchmark output.

Nothing here imports ``wblowup``: each routine takes plain exponent tuples
and integers and reaches its answer by a route of its own.

* Threshold ideals come from a box enumeration over all but the last
  positive coordinate, the last one forced to the least value that reaches
  the threshold, kept when dropping any present variable falls below it.
* Membership in ``I_L^d`` is a search for ``d`` exponent vectors of weight
  ``>= L`` summing to at most the monomial, memoised on the remainder.
* Symbolic powers zero the outside exponents of the ``t``-fold products.
* Terminality sums ``j * b_i mod r`` in integers (Reid-Tai, no fractions).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


def positive_count(entries: tuple[int, ...]) -> int:
    k = 0
    while k < len(entries) and entries[k] > 0:
        k += 1
    return k


def weight_of(entries, exps) -> int:
    return sum(a * s for a, s in zip(entries, exps))


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def grlex(e):
    return (sum(e), tuple(-x for x in e))


@lru_cache(maxsize=None)
def threshold_gens(entries: tuple[int, ...], D: int) -> frozenset:
    """Minimal exponent vectors of weighted degree >= D (on all n coordinates)."""
    n, k = len(entries), positive_count(entries)
    if D <= 0:
        return frozenset({(0,) * n})
    a = entries[:k]
    out = set()
    for head in itertools.product(*(range(-(-D // ai) + 1) for ai in a[:-1])):
        part = weight_of(a, head)
        last = max(0, -(-(D - part) // a[-1]))
        s = head + (last,)
        wt = part + last * a[-1]
        if all(wt - a[i] < D for i in range(k) if s[i]):
            out.add(s + (0,) * (n - k))
    return frozenset(out)


class PowerMembership:
    """Membership in the d-th power of the threshold-L ideal of one weight.

    A monomial lies in ``I_L^d`` iff it is at least a sum of ``d`` exponent
    vectors of weight ``>= L``; each summand may be taken minimal, so the
    search runs over the generators of ``I_L`` only.
    """

    def __init__(self, entries: tuple[int, ...], L: int):
        self.entries = entries
        self.L = L
        self.gens = sorted(threshold_gens(entries, L), key=grlex)
        self.memo: dict = {}

    def contains(self, g: tuple[int, ...], d: int) -> bool:
        if weight_of(self.entries, g) < d * self.L:
            return False
        if d == 1:
            return True
        key = (g, d)
        hit = self.memo.get(key)
        if hit is None:
            hit = any(
                self.contains(tuple(x - y for x, y in zip(g, h)), d - 1)
                for h in self.gens
                if divides(h, g)
            )
            self.memo[key] = hit
        return hit


class NormalityReference:
    """Power-equality verdicts and normality indices of one weight."""

    def __init__(self, entries: tuple[int, ...]):
        self.entries = entries
        self.members: dict[int, PowerMembership] = {}
        self.verdicts: dict[tuple[int, int], bool] = {}

    def member(self, L: int) -> PowerMembership:
        if L not in self.members:
            self.members[L] = PowerMembership(self.entries, L)
        return self.members[L]

    def equal(self, L: int, d: int) -> bool:
        """Does every minimal generator of I_{dL} lie in I_L^d?"""
        if (L, d) not in self.verdicts:
            pm = self.member(L)
            self.verdicts[L, d] = all(
                pm.contains(g, d) for g in threshold_gens(self.entries, d * L)
            )
        return self.verdicts[L, d]

    def witness_ok(self, L: int, d: int, g: tuple[int, ...]) -> bool:
        """Is g a minimal generator of I_{dL} that is no sum of d vectors of weight >= L?"""
        return g in threshold_gens(self.entries, d * L) and not self.member(L).contains(g, d)

    def index(self, d_max: int, L_max: int):
        for L in range(1, L_max + 1):
            if all(self.equal(L, d) for d in range(2, d_max + 1)):
                return L
        return None


def minimal(exps) -> set:
    """Divisibility-minimal elements of a set of exponent tuples."""
    kept: list = []
    for e in sorted(set(exps), key=sum):
        if not any(divides(f, e) for f in kept):
            kept.append(e)
    return set(kept)


def symbolic_reference(gens, radical_vars, t: int):
    """(t-fold products, symbolic power generators) of the ideal spanned by gens."""
    n = len(gens[0])
    products = minimal(
        tuple(map(sum, zip(*combo)))
        for combo in itertools.combinations_with_replacement(gens, t)
    )
    inside = [i + 1 in radical_vars for i in range(n)]
    symbolic = minimal(tuple(e if keep else 0 for e, keep in zip(p, inside)) for p in products)
    return products, symbolic


def in_ideal(gens, m) -> bool:
    return any(divides(g, m) for g in gens)


def reid_tai_terminal(r: int, twists) -> bool:
    """Every j in 1..r-1 has sum(j * b_i mod r) > r (integer form of age > 1)."""
    return r == 1 or all(sum(j * b % r for b in twists) > r for j in range(1, r))


def chart_quotients(entries: tuple[int, ...]):
    """(order, twists) of each chart of the weighted blow-up, in chart order."""
    k = positive_count(entries)
    return [
        (ai, tuple((1 if j == i else -aj) % ai for j, aj in enumerate(entries)))
        for i, ai in enumerate(entries[:k])
    ]


def morrison_stevens(r: int, twists) -> bool:
    """Is 1/r(twists) of the form 1/r(a, -a, 1) with gcd(a, r) = 1, up to order?"""
    for perm in itertools.permutations(twists):
        a, b, c = perm
        if c % r == 1 and (a + b) % r == 0 and math.gcd(a, r) == 1:
            return True
    return False


def parse_monomial_text(text: str, n: int) -> tuple[int, ...]:
    """'x1^5*x2^4*x3' -> (5, 4, 1); '1' -> zeros."""
    exps = [0] * n
    if text != "1":
        for factor in text.split("*"):
            var, _, power = factor.partition("^")
            exps[int(var[1:]) - 1] += int(power or 1)
    return tuple(exps)
