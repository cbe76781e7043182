"""Exact arithmetic for monomials, polynomials and monomial ideals.

The ambient ring is C[x1, ..., xn] for a fixed n; variables are indexed
1-based throughout.  A monomial is an exponent tuple, a polynomial maps
monomials to nonzero exact rational coefficients, and a monomial ideal is
stored by the exponent tuples of its minimal monomial generating set, which
is an antichain under divisibility and is unique.  The constructors put
every value in canonical form (like terms combined and sorted, generators
minimal and sorted), so ``==`` on values is equality of polynomials and of
ideals.  The ideal kernels work on plain int tuples throughout and build
no ``Monomial``; ``MonomialIdeal.generators`` builds them for callers.

All values are immutable and every operation is a pure function, so values
can be shared freely (including across threads).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import add, itemgetter, le, mul, sub
from typing import Iterable, Optional, Sequence, Union

from .errors import DimensionMismatchError, InvalidArgumentError

__all__ = [
    "Monomial",
    "Polynomial",
    "MonomialIdeal",
    "EqualityVerdict",
    "divides",
    "minimalize",
    "ideal_product",
    "ideal_power",
    "contains",
    "contains_monomial",
    "colon",
    "saturate",
    "radical",
]


def _same_dim(a: int, b: int) -> None:
    if a != b:
        raise DimensionMismatchError(f"ambient dimensions differ: {a} vs {b}")


@dataclass(frozen=True, slots=True)
class Monomial:
    """x1^s1 * ... * xn^sn stored as the exponent tuple (s1, ..., sn)."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) < 1:
            raise InvalidArgumentError("ambient dimension must be at least 1")
        if min(exps) < 0:
            raise InvalidArgumentError(f"negative exponent in {exps}")

    @classmethod
    def one(cls, ambient_dim: int) -> "Monomial":
        return cls((0,) * ambient_dim)

    @classmethod
    def variable(cls, index: int, ambient_dim: int) -> "Monomial":
        """The monomial x_index; indices are 1-based."""
        if not 1 <= index <= ambient_dim:
            raise InvalidArgumentError(f"variable index {index} out of range 1..{ambient_dim}")
        return cls(tuple(1 if i == index - 1 else 0 for i in range(ambient_dim)))

    @property
    def ambient_dim(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def is_one(self) -> bool:
        return not any(self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        _same_dim(self.ambient_dim, other.ambient_dim)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __pow__(self, e: int) -> "Monomial":
        if e < 0:
            raise InvalidArgumentError("monomial powers must be non-negative")
        return Monomial(tuple(s * e for s in self.exponents))


Coefficient = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class Polynomial:
    """Finite sum of monomials with nonzero exact rational coefficients.

    The constructor combines like terms, drops those that cancel and puts
    the rest in grlex order through the helper that orders ideal generators,
    so equal polynomials compare equal.  The zero polynomial is the empty
    term tuple.  A term given with coefficient 0 is refused;
    :meth:`from_terms` skips such terms instead.
    """

    ambient_dim: int
    terms: tuple[tuple[Monomial, Fraction], ...] = ()

    def __post_init__(self) -> None:
        if self.ambient_dim < 1:
            raise InvalidArgumentError("ambient dimension must be at least 1")
        by_exps: dict[tuple[int, ...], Monomial] = {}
        sums: dict[tuple[int, ...], Fraction] = {}
        for m, c in self.terms:
            _same_dim(m.ambient_dim, self.ambient_dim)
            if c == 0:
                raise InvalidArgumentError("zero coefficient stored in a polynomial term")
            e = m.exponents
            if e in sums:
                sums[e] += Fraction(c)
            else:
                by_exps[e] = m
                sums[e] = Fraction(c)
        kept = _grlex(e for e, c in sums.items() if c)
        object.__setattr__(self, "terms", tuple((by_exps[e], sums[e]) for e in kept))

    @classmethod
    def from_terms(
        cls, terms: Iterable[tuple[Monomial, Coefficient]], ambient_dim: int
    ) -> "Polynomial":
        return cls(ambient_dim, tuple((m, c) for m, c in terms if c != 0))

    @classmethod
    def from_monomial(cls, m: Monomial, coefficient: Coefficient = 1) -> "Polynomial":
        return cls.from_terms([(m, coefficient)], m.ambient_dim)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Polynomial":
        return cls(ambient_dim, ())

    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self) -> tuple[Monomial, ...]:
        return tuple(m for m, _ in self.terms)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        _same_dim(self.ambient_dim, other.ambient_dim)
        products = ((m1 * m2, c1 * c2) for m1, c1 in self.terms for m2, c2 in other.terms)
        return Polynomial(self.ambient_dim, tuple(products))


@dataclass(frozen=True, slots=True, init=False)
class MonomialIdeal:
    """A monomial ideal, stored by the exponent tuples of its minimal generators.

    ``MonomialIdeal(n, generators)`` accepts any generating set of
    ``Monomial``s and keeps its divisibility-minimal members, in grlex
    order, as plain int tuples in ``exponents``; so ``==`` and ``hash`` on
    ``(ambient_dim, exponents)`` are equality of ideals.  ``generators``
    builds the ``Monomial``s on request.  The empty tuple is the zero
    ideal; the single generator 1 is the unit ideal.
    """

    ambient_dim: int
    exponents: tuple[tuple[int, ...], ...]

    def __init__(self, ambient_dim: int, generators: Iterable[Monomial] = ()) -> None:
        exps: set[tuple[int, ...]] = set()
        for g in generators:
            _same_dim(g.ambient_dim, ambient_dim)
            exps.add(g.exponents)
        if ambient_dim < 1:
            raise InvalidArgumentError("ambient dimension must be at least 1")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "exponents", tuple(_grlex_antichain(exps)))

    @property
    def generators(self) -> tuple[Monomial, ...]:
        return tuple(map(Monomial, self.exponents))

    @classmethod
    def zero(cls, ambient_dim: int) -> "MonomialIdeal":
        return cls(ambient_dim, ())

    @classmethod
    def unit(cls, ambient_dim: int) -> "MonomialIdeal":
        return cls(ambient_dim, (Monomial.one(ambient_dim),))

    def is_zero(self) -> bool:
        return not self.exponents

    def is_unit(self) -> bool:
        # Generators are in grlex order, so 1 can only come first.
        return bool(self.exponents) and not any(self.exponents[0])


@dataclass(frozen=True, slots=True)
class EqualityVerdict:
    """Outcome of an ideal comparison: EQUAL, or NOT_EQUAL plus a witness.

    The witness is a monomial lying in the larger ideal but not in the
    smaller one, so a failed comparison is independently checkable.  The
    verdict is its witness: ``EqualityVerdict()`` is EQUAL, and
    ``EqualityVerdict(g)`` is NOT_EQUAL with witness g.
    """

    witness: Optional[Monomial] = None

    @property
    def equal(self) -> bool:
        return self.witness is None

    @property
    def verdict(self) -> str:
        return "EQUAL" if self.equal else "NOT_EQUAL"


def divides(m1: Monomial, m2: Monomial) -> bool:
    """True iff m1 divides m2 componentwise."""
    _same_dim(m1.ambient_dim, m2.ambient_dim)
    return all(map(le, m1.exponents, m2.exponents))


def minimalize(gens: Iterable[Monomial], ambient_dim: Optional[int] = None) -> MonomialIdeal:
    """The ideal generated by ``gens``, on its minimal generators.

    ``ambient_dim`` defaults to that of the first generator and is required
    when ``gens`` is empty (the zero ideal of that ring).
    """
    pool = tuple(gens)
    if ambient_dim is None:
        if not pool:
            raise InvalidArgumentError("ambient_dim is required for an empty generating set")
        ambient_dim = pool[0].ambient_dim
    return MonomialIdeal(ambient_dim, pool)


def _grlex(exps: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The distinct exponent tuples ``exps`` in grlex order.

    Total degree ascending, then x1-heavy monomials first: within one degree
    x1^d precedes x1^(d-1)*x2 precedes ... precedes xn^d.  That is lex
    descending, then a stable sort by degree.  All printed output, stored
    polynomial terms and stored generator tuples follow this order.
    """
    ordered = sorted(exps, reverse=True)
    ordered.sort(key=sum)
    return ordered


def _grlex_antichain(exps: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The divisibility-minimal tuples among the distinct ``exps``, in grlex order."""
    # Any divisor of e is ranked before e in grlex order, so one pass works:
    # e is kept when the divisor query finds no divisor among the tuples kept
    # so far, which are a grlex-ordered list as the query requires.
    kept: list[tuple[int, ...]] = []
    for e in _grlex(exps):
        if not _has_divisor(kept, e):
            kept.append(e)
    return kept


def _ideal_from_grlex(ambient_dim: int, exps: Iterable[tuple[int, ...]]) -> MonomialIdeal:
    """The ideal of exponent tuples that are distinct, minimal and in grlex order.

    The one path that skips the constructor's antichain scan, for kernel
    output that is already canonical: each tuple must be a tuple of
    non-negative ints of length ``ambient_dim``.
    """
    ideal = object.__new__(MonomialIdeal)
    object.__setattr__(ideal, "ambient_dim", ambient_dim)
    object.__setattr__(ideal, "exponents", tuple(exps))
    return ideal


def ideal_product(left: MonomialIdeal, right: MonomialIdeal) -> MonomialIdeal:
    """Product ideal, generated by pairwise products of generators."""
    _same_dim(left.ambient_dim, right.ambient_dim)
    prods = {tuple(map(add, g, h)) for g in left.exponents for h in right.exponents}
    return _ideal_from_grlex(left.ambient_dim, _grlex_antichain(prods))


def ideal_power(ideal: MonomialIdeal, d: int) -> MonomialIdeal:
    """d-th power; the 0-th power is the unit ideal."""
    if d < 0:
        raise InvalidArgumentError("ideal powers must have non-negative exponent")
    if d == 0:
        return MonomialIdeal.unit(ideal.ambient_dim)
    acc = ideal
    for _ in range(d - 1):
        acc = ideal_product(acc, ideal)
    return acc


# The weight of a (generator, weight) factor of ``_power_verdict``.
_weight_of = itemgetter(1)


def _power_verdict(
    target: Sequence[tuple[int, ...]],
    base: Sequence[tuple[int, ...]],
    a: Sequence[int],
    t: int,
    threshold: bool,
) -> EqualityVerdict:
    """Whether the generators ``target`` lie in the t-th power of (``base``).

    Both are sequences of exponent tuples.  The power is never formed, and
    ``target`` is walked in grlex order, so a NOT_EQUAL witness is the first
    one the power misses, and the only ``Monomial`` built.  All tuples must
    involve only the first len(a) variables, which carry the linear weight
    ``a``; let floor be the least weight in the base.  A monomial e lies in
    the t-th power when some base generator h divides e with e / h in the
    (t-1)-th power (for t = 1, when some h divides e).  A rest weighing less
    than (t-1)*floor is cut, as no product of t-1 base generators weighs
    less: the generators are sorted by weight once, stably (so a degree
    weight keeps their grlex order), and each frame tries only the prefix
    of those light enough, found by one bisection.  Answers are memoised on
    (e, t) for the one call.  The last factor (and the only one, for t = 1)
    is tested by the divisor query ``_has_divisor`` on the base, which
    stays in grlex order when cut to the first len(a) variables.  With
    ``threshold`` the base is every minimal monomial of weight >= L for
    some L, and the last factor is not tested: a rest that passes the cut
    weighs at least floor >= L, so it is a member.  The cut drops no member
    either: a rest of weight >= L lies in the threshold-L ideal, so some
    base generator divides it, and so its weight is at least floor.
    """
    k = len(a)
    heads = [h[:k] for h in base]
    factors = [(h, sum(map(mul, a, h))) for h in heads]
    factors.sort(key=_weight_of)
    floor = factors[0][1]
    memo: dict[tuple[tuple[int, ...], int], bool] = {}

    def in_power(e: tuple[int, ...]) -> bool:
        if t == 1:
            return _has_divisor(heads, e)
        # Depth first over one generator per factor.  Each frame holds a
        # monomial, its weight, its power s and its untried generators: the
        # prefix of the factors light enough to leave a rest of at least
        # (s-1)*floor.  An explicit stack keeps a large t clear of the
        # recursion limit.  The loop lists every untried generator that
        # divides, as each one starts a branch, so it is no yes/no divisor
        # query.
        weight = sum(map(mul, a, e))
        cut = bisect_right(factors, weight - (t - 1) * floor, key=_weight_of)
        stack = [(e, weight, t, islice(factors, cut))]
        while stack:
            e, weight, s, untried = stack[-1]
            for h, h_weight in untried:
                if not all(map(le, h, e)):
                    continue
                if s == 2:
                    found = threshold or _has_divisor(heads, tuple(map(sub, e, h)))
                else:
                    rest = tuple(map(sub, e, h))
                    found = memo.get((rest, s - 1))
                    if found is None:
                        rest_weight = weight - h_weight
                        cut = bisect_right(factors, rest_weight - (s - 2) * floor, key=_weight_of)
                        stack.append((rest, rest_weight, s - 1, islice(factors, cut)))
                        break
                if found:
                    # Every monomial on the stack is a member through this one.
                    for frame in stack:
                        memo[frame[0], frame[2]] = True
                    return True
            else:
                memo[e, s] = False
                stack.pop()
        return False

    for g in target:
        if not in_power(g[:k]):
            return EqualityVerdict(Monomial(g))
    return EqualityVerdict()


# Tuples per degree, on average, from which ``_has_divisor`` bisects each
# degree block instead of scanning it.
_DENSE = 16


def _minus_first(f: tuple[int, ...]) -> int:
    return -f[0]


def _has_divisor(exps: Sequence[tuple[int, ...]], e: tuple[int, ...]) -> bool:
    """True iff some tuple of ``exps``, which are in grlex order, divides ``e``.

    The one divisor query: membership, minimal generating sets and the power
    search all ask it.  A list of fewer than ``_DENSE`` tuples (most kept
    lists of the antichain scan, saturation checks, small power bases) is
    scanned whole, with no bisection.  In a longer list only the tuples up
    to degree D = deg(e) can divide, and they are taken from degree D
    downward: a member just above a threshold has its divisors a few degrees
    below it.  Inside the block of one degree delta the first exponents do
    not increase, and a divisor f of e has e_1 - (D - delta) <= f_1 <= e_1.
    Proof: f_1 <= e_1 as f divides e, and the other exponents of f sum to
    delta - f_1 but are bounded by those of e, which sum to D - e_1.  Where
    the tuples up to degree D number at least ``_DENSE`` per degree on
    average, two bisections cut each block down to that window and only the
    window is tested.  Degree-sparse lists (two-variable thresholds) are
    scanned from degree D down, since there a bisection costs more than the
    few tuples it skips.  The scan is a plain loop, which starts faster than
    a chain of ``map``s on a short list; the windows are tested by such a
    chain.
    """
    hi = len(exps)
    if hi < _DENSE or (hi := bisect_right(exps, top := sum(e), key=sum)) < _DENSE * (
        top - sum(exps[0]) + 1
    ):
        for f in reversed(exps[:hi]):
            if all(map(le, f, e)):
                return True
        return False
    while hi:
        delta = sum(exps[hi - 1])
        lo = bisect_left(exps, delta, 0, hi, key=sum)
        start = bisect_left(exps, -e[0], lo, hi, key=_minus_first)
        floor = e[0] - (top - delta)
        end = bisect_right(exps, -floor, start, hi, key=_minus_first) if floor > 0 else hi
        if any(map(all, map(map, repeat(le), exps[start:end], repeat(e)))):
            return True
        hi = lo
    return False


def contains_monomial(ideal: MonomialIdeal, m: Monomial) -> bool:
    """True iff some generator divides m."""
    _same_dim(ideal.ambient_dim, m.ambient_dim)
    return _has_divisor(ideal.exponents, m.exponents)


def contains(ideal: MonomialIdeal, f: Polynomial) -> bool:
    """Membership for polynomials: every term must lie in the ideal.

    The zero polynomial belongs to every ideal, including the zero ideal.
    """
    _same_dim(ideal.ambient_dim, f.ambient_dim)
    return all(_has_divisor(ideal.exponents, m.exponents) for m, _ in f.terms)


def colon(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """Colon ideal (I : m), computed generator-wise as g / gcd(g, m)."""
    _same_dim(ideal.ambient_dim, m.ambient_dim)
    me = m.exponents
    quotients = {tuple(max(g - x, 0) for g, x in zip(gen, me)) for gen in ideal.exponents}
    return _ideal_from_grlex(ideal.ambient_dim, _grlex_antichain(quotients))


def saturate(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """Saturation (I : m^infinity), in closed form.

    Each generator g becomes g with the coordinates in supp(m) set to 0, and
    the result is minimalized once.  Proof: (g) : m^k = (g / gcd(g, m^k)),
    which is g with supp(m) zeroed once k >= max(g), and the quotient of a
    sum of principal monomial ideals is the sum of the quotients.
    """
    _same_dim(ideal.ambient_dim, m.ambient_dim)
    me = m.exponents
    zeroed = {tuple(0 if x else g for g, x in zip(gen, me)) for gen in ideal.exponents}
    return _ideal_from_grlex(ideal.ambient_dim, _grlex_antichain(zeroed))


def radical(ideal: MonomialIdeal) -> MonomialIdeal:
    """Radical of a monomial ideal: squarefree supports of the generators."""
    supports = {tuple(1 if e > 0 else 0 for e in g) for g in ideal.exponents}
    return _ideal_from_grlex(ideal.ambient_dim, _grlex_antichain(supports))
