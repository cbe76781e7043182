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
from operator import add, index, itemgetter, le, mul, sub
from typing import Iterable, Iterator, Optional, Sequence, Union

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


def _wrong_type(name: str, expected: str, *values: object) -> InvalidArgumentError:
    """INVALID_ARGUMENT for ``name`` handed values that are not the library types it takes.

    The entry points raise it from the AttributeError that reading such a
    value raises, so valid input pays no type check.
    """
    got = " and ".join(type(v).__name__ for v in values)
    return InvalidArgumentError(f"{name} expects {expected}, got {got}")


def _integer(value: int, name: str, least: Optional[int] = None) -> int:
    """``value`` as an int of at least ``least``, or INVALID_ARGUMENT.

    The one integer-argument check of the library: floats, fractions and
    strings are refused rather than rounded, and a value below ``least``
    reads "must be non-negative" (least 0), "must be positive" (least 1) or
    "must be at least k".  Checked before any cache lookup or shortcut:
    4.0 == 4 in an ``lru_cache`` key, so a float threshold would otherwise
    store its answer for the int one, and the symbolic EQUAL shortcut would
    answer a float exponent that the general route cannot take.
    """
    try:
        value = index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        bound = {0: "non-negative", 1: "positive"}.get(least, f"at least {least}")
        raise InvalidArgumentError(f"{name} must be {bound}, got {value}")
    return value


def _dimension(n: int) -> int:
    """``n`` as an int ambient dimension of at least 1, or INVALID_ARGUMENT.

    Past the integer check, a dimension below 1 keeps its own message, which
    names no value: "ambient dimension must be at least 1".
    """
    if (n := _integer(n, "ambient dimension")) < 1:
        raise InvalidArgumentError("ambient dimension must be at least 1")
    return n


@dataclass(frozen=True, slots=True, init=False)
class Monomial:
    """x1^s1 * ... * xn^sn stored as the exponent tuple (s1, ..., sn)."""

    exponents: tuple[int, ...]

    def __init__(self, exponents: Iterable[int]) -> None:
        try:
            exps = tuple(map(index, exponents))
        except TypeError:
            raise InvalidArgumentError(f"non-integer exponent in {exponents!r}") from None
        if not exps or min(exps) < 0:
            _dimension(len(exps))  # refuses the empty tuple
            raise InvalidArgumentError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def one(cls, ambient_dim: int) -> "Monomial":
        return cls((0,) * _dimension(ambient_dim))

    @classmethod
    def variable(cls, index: int, ambient_dim: int) -> "Monomial":
        """The monomial x_index; indices are 1-based."""
        index = _integer(index, "variable index")
        ambient_dim = _dimension(ambient_dim)
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
        e = _integer(e, "monomial power exponent", 0)
        return Monomial(tuple(s * e for s in self.exponents))


Coefficient = Union[int, Fraction]
_Term = tuple[Monomial, Coefficient]


@dataclass(frozen=True, slots=True, init=False)
class Polynomial:
    """Finite sum of monomials with nonzero exact rational coefficients.

    The constructor combines like terms, drops those that cancel and puts
    the rest in grlex order through the helper that orders ideal generators,
    so equal polynomials compare equal.  The zero polynomial is the empty
    term tuple.  Coefficients must be ints or ``Fraction``s, so arithmetic
    stays exact; a float is refused, not converted.  A term given with
    coefficient 0 is refused; :meth:`from_terms` skips such terms instead.
    """

    ambient_dim: int
    terms: tuple[tuple[Monomial, Fraction], ...]

    def __init__(self, ambient_dim: int, terms: Iterable[_Term] = ()) -> None:
        n = _dimension(ambient_dim)
        by_exps: dict[tuple[int, ...], Monomial] = {}
        sums: dict[tuple[int, ...], Fraction] = {}
        for m, c in terms:
            e = m.exponents
            if len(e) != n:
                _same_dim(len(e), n)
            if not isinstance(c, (int, Fraction)):
                raise InvalidArgumentError(f"coefficient must be an int or a Fraction, got {c!r}")
            if c == 0:
                raise InvalidArgumentError("zero coefficient stored in a polynomial term")
            by_exps.setdefault(e, m)
            sums[e] = sums[e] + c if e in sums else Fraction(c)
        kept = _grlex(e for e, c in sums.items() if c)
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "terms", tuple((by_exps[e], sums[e]) for e in kept))

    @classmethod
    def from_terms(cls, terms: Iterable[_Term], ambient_dim: int) -> "Polynomial":
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
        # Keyed in the order given, so a mismatch names the first offender.
        exps = {g.exponents: None for g in generators}
        for e in exps:
            if len(e) != ambient_dim:
                _same_dim(len(e), ambient_dim)
        object.__setattr__(self, "ambient_dim", _dimension(ambient_dim))
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
    try:
        a, b = m1.exponents, m2.exponents
    except AttributeError:
        raise _wrong_type("divides", "two Monomials", m1, m2) from None
    _same_dim(len(a), len(b))
    return all(map(le, a, b))


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


def _grlex_antichain(exps: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """The divisibility-minimal tuples among the distinct ``exps``, lazily, in grlex order.

    Any divisor of e is ranked before e in grlex order, so one pass works:
    e is yielded when the divisor query finds no divisor among the tuples
    kept so far, which are a grlex-ordered list as the query requires.
    Those tuples are distinct from e, so none of e's own degree divides it,
    and the query is asked in its strict mode.  The sort is done at the
    first step; each further step scans only as far as the next minimal
    tuple, so a caller that stops early skips the rest of the scan.
    """
    kept: list[tuple[int, ...]] = []
    for e in _grlex(exps):
        if not _has_divisor(kept, e, True):
            kept.append(e)
            yield e


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


def _products(
    left: Sequence[tuple[int, ...]], right: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """The minimal pair products g + h, g in ``left`` and h in ``right``, lazily, in grlex order.

    The products are formed and put in a set at the call; the antichain
    scan then yields them one at a time, so a caller that stops early skips
    the rest of the scan.
    """
    return _grlex_antichain({tuple(map(add, g, h)) for g in left for h in right})


def _power_generators(exps: Sequence[tuple[int, ...]], d: int) -> Iterator[tuple[int, ...]]:
    """The minimal generators of the d-th power of (``exps``), d >= 1, lazily, in grlex order.

    ``exps`` must be minimal and in grlex order.  The first generator is
    d * s_1, for s_1 = ``exps[0]``, and it is yielded before any product is
    formed.  Proof: grlex is a monomial order, so a <= b gives
    a + c <= b + c, and a divisor of a monomial never follows it.  Each of
    d generators is at least s_1, so their product is at least d * s_1,
    with equality only when each one is s_1: d * s_1 is the least product.
    A member of the power that divides d * s_1 is a multiple of some
    product, so it is at least d * s_1 and, as a divisor, at most d * s_1;
    it is d * s_1 itself.  So d * s_1 is minimal and the least minimal
    generator.  Then every step but the last is materialized, as the next
    one multiplies it out; the last is the lazy product stream, and its
    first element, d * s_1 again, is dropped.
    """
    if not exps:
        return
    yield tuple(d * x for x in exps[0])
    power = iter(exps)
    for _ in range(d - 1):
        power = _products(tuple(power), exps)
    next(power)
    yield from power


def ideal_product(left: MonomialIdeal, right: MonomialIdeal) -> MonomialIdeal:
    """Product ideal, generated by pairwise products of generators."""
    _same_dim(left.ambient_dim, right.ambient_dim)
    return _ideal_from_grlex(left.ambient_dim, _products(left.exponents, right.exponents))


def ideal_power(ideal: MonomialIdeal, d: int) -> MonomialIdeal:
    """d-th power; the 0-th power is the unit ideal.  d must be a non-negative integer."""
    d = _integer(d, "power exponent", 0)
    if d == 0:
        return MonomialIdeal.unit(ideal.ambient_dim)
    return _ideal_from_grlex(ideal.ambient_dim, _power_generators(ideal.exponents, d))


# The weight of a (generator, weight) factor of ``_power_verdict``.
_weight_of = itemgetter(1)


def _power_verdict(
    target: Iterable[tuple[int, ...]],
    base: Sequence[tuple[int, ...]],
    a: Sequence[int],
    t: int,
    threshold: bool,
) -> EqualityVerdict:
    """Whether the generators ``target`` lie in the t-th power of (``base``).

    Both hold exponent tuples; ``target`` may be lazy, as it is read only
    up to the first miss.  The power is never formed, and ``target`` is
    walked in grlex order, so a NOT_EQUAL witness is the first one the
    power misses, and the only ``Monomial`` built.  All tuples must
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


def _has_divisor(
    exps: Sequence[tuple[int, ...]], e: tuple[int, ...], strict: bool = False
) -> bool:
    """True iff some tuple of ``exps``, which are in grlex order, divides ``e``.

    The one divisor query: membership, minimal generating sets and the power
    search all ask it.  A list of fewer than ``_DENSE`` tuples (most kept
    lists of the antichain scan, saturation checks, small power bases) is
    scanned whole, with no bisection.  In a longer list only the tuples up
    to degree D = deg(e) can divide, and they are taken from degree D
    downward: a member just above a threshold has its divisors a few degrees
    below it.  With ``strict`` the caller vouches that no tuple of degree D
    divides e (the antichain scan, whose kept tuples are distinct from e),
    and the tuples are taken from degree D - 1 downward; membership asks
    inclusively, as a generator divides itself.  Inside the block of one
    degree delta the first exponents do not increase, and a divisor f of e
    has e_1 - (D - delta) <= f_1 <= e_1.  Proof: f_1 <= e_1 as f divides e,
    and the other exponents of f sum to delta - f_1 but are bounded by
    those of e, which sum to D - e_1.  Where the tuples up to the top
    degree taken number at least ``_DENSE`` per degree on average, two
    bisections cut each block down to that window and only the window is
    tested.  Degree-sparse lists (two-variable thresholds) are scanned from
    the top degree down, since there a bisection costs more than the few
    tuples it skips.  The scan is a plain loop, which starts faster than a
    chain of ``map``s on a short list; the windows are tested by such a
    chain.
    """
    size = hi = len(exps)
    if hi < _DENSE or (hi := bisect_right(exps, (top := sum(e)) - strict, key=sum)) < _DENSE * (
        top - strict - sum(exps[0]) + 1
    ):
        for f in reversed(exps[:hi] if hi < size else exps):
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
    try:
        exps, terms = ideal.exponents, f.terms
    except AttributeError:
        raise _wrong_type("contains", "a MonomialIdeal and a Polynomial", ideal, f) from None
    _same_dim(ideal.ambient_dim, f.ambient_dim)
    return all(_has_divisor(exps, m.exponents) for m, _ in terms)


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
    keep = tuple(0 if x else 1 for x in m.exponents)
    return _ideal_from_grlex(ideal.ambient_dim, _saturation(ideal.exponents, keep))


def _saturation(
    exps: Iterable[tuple[int, ...]], keep: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """The minimal generators of (``exps``) with the coordinates where ``keep`` is 0 set to 0.

    ``keep`` holds 1 at each coordinate to keep and 0 at each one to zero;
    the result is in grlex order.  That is the saturation by any monomial
    whose support is the zeroed coordinates (see :func:`saturate`).
    """
    return tuple(_grlex_antichain({tuple(map(mul, gen, keep)) for gen in exps}))


def radical(ideal: MonomialIdeal) -> MonomialIdeal:
    """Radical of a monomial ideal: squarefree supports of the generators."""
    supports = {tuple(1 if e > 0 else 0 for e in g) for g in ideal.exponents}
    return _ideal_from_grlex(ideal.ambient_dim, _grlex_antichain(supports))
