"""Exact arithmetic for monomials, polynomials and monomial ideals.

The ambient ring is C[x1, ..., xn] for a fixed n; variables are indexed
1-based throughout.  A monomial is an exponent tuple, a polynomial maps
monomials to nonzero exact rational coefficients, and a monomial ideal is
stored by its minimal monomial generating set, which is an antichain under
divisibility and is unique.  The constructors put every value in canonical
form (like terms combined and sorted, generators minimal and sorted), so
``==`` on values is equality of polynomials and of ideals.

All values are immutable and every operation is a pure function, so values
can be shared freely (including across threads).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import le, mul, sub
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import DimensionMismatchError, InvalidArgumentError

__all__ = [
    "Monomial",
    "Polynomial",
    "MonomialIdeal",
    "EqualityVerdict",
    "grlex_key",
    "divides",
    "minimalize",
    "ideal_product",
    "ideal_power",
    "contains",
    "contains_monomial",
    "colon",
    "saturate",
    "radical",
    "ideals_equal",
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


def grlex_key(m: Monomial) -> tuple:
    """Canonical sort key: total degree ascending, then x1-heavy monomials first.

    Within one degree x1^d precedes x1^(d-1)*x2 precedes ... precedes xn^d.
    All printed output and stored generator tuples follow this order.
    """
    return (m.degree, tuple(-e for e in m.exponents))


Coefficient = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class Polynomial:
    """Finite sum of monomials with nonzero exact rational coefficients.

    The constructor combines like terms, drops those that cancel and sorts
    the rest by :func:`grlex_key`, so equal polynomials compare equal.  The
    zero polynomial is the empty term tuple.  A term given with coefficient
    0 is refused; :meth:`from_terms` skips such terms instead.
    """

    ambient_dim: int
    terms: tuple[tuple[Monomial, Fraction], ...] = ()

    def __post_init__(self) -> None:
        if self.ambient_dim < 1:
            raise InvalidArgumentError("ambient dimension must be at least 1")
        acc: dict[Monomial, Fraction] = {}
        for m, c in self.terms:
            _same_dim(m.ambient_dim, self.ambient_dim)
            if c == 0:
                raise InvalidArgumentError("zero coefficient stored in a polynomial term")
            acc[m] = acc.get(m, 0) + Fraction(c)
        terms = sorted(((m, c) for m, c in acc.items() if c), key=lambda t: grlex_key(t[0]))
        object.__setattr__(self, "terms", tuple(terms))

    @classmethod
    def from_terms(
        cls,
        terms: Union[Mapping[Monomial, Coefficient], Iterable[tuple[Monomial, Coefficient]]],
        ambient_dim: int,
    ) -> "Polynomial":
        items = terms.items() if isinstance(terms, Mapping) else terms
        return cls(ambient_dim, tuple((m, c) for m, c in items if c != 0))

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
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = m1 * m2
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
        return Polynomial.from_terms(acc, self.ambient_dim)


@dataclass(frozen=True, slots=True)
class MonomialIdeal:
    """A monomial ideal, stored by its minimal generators in grlex order.

    The constructor accepts any generating set and keeps its
    divisibility-minimal members, so equal ideals compare equal.  The empty
    generator tuple is the zero ideal; the single generator 1 is the unit
    ideal.
    """

    ambient_dim: int
    generators: tuple[Monomial, ...] = ()

    def __post_init__(self) -> None:
        by_exps: dict[tuple[int, ...], Monomial] = {}
        for g in self.generators:
            _same_dim(g.ambient_dim, self.ambient_dim)
            by_exps[g.exponents] = g
        if self.ambient_dim < 1:
            raise InvalidArgumentError("ambient dimension must be at least 1")
        kept = tuple(by_exps[e] for e in _grlex_antichain(by_exps))
        object.__setattr__(self, "generators", kept)

    @classmethod
    def zero(cls, ambient_dim: int) -> "MonomialIdeal":
        return cls(ambient_dim, ())

    @classmethod
    def unit(cls, ambient_dim: int) -> "MonomialIdeal":
        return cls(ambient_dim, (Monomial.one(ambient_dim),))

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return any(g.is_one() for g in self.generators)


@dataclass(frozen=True, slots=True)
class EqualityVerdict:
    """Outcome of an ideal comparison: EQUAL, or NOT_EQUAL plus a witness.

    The witness is a monomial lying in the larger ideal but not in the
    smaller one, so a failed comparison is independently checkable.
    """

    equal: bool
    witness: Optional[Monomial] = None

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


def _grlex_antichain(exps: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The divisibility-minimal tuples among the distinct ``exps``, in grlex order."""
    # Grlex order: lex descending, then a stable sort by degree.  Any divisor
    # of e is ranked before e, so one pass works.
    ordered = sorted(exps, reverse=True)
    ordered.sort(key=sum)
    kept: list[tuple[int, ...]] = []
    for e in ordered:
        if not any(all(map(le, f, e)) for f in kept):
            kept.append(e)
    return kept


def _ideal_from_grlex(ambient_dim: int, exps: Iterable[tuple[int, ...]]) -> MonomialIdeal:
    """The ideal of exponent tuples that are distinct, minimal and in grlex order.

    The one path that skips the constructor, for kernel output that is
    already canonical; each tuple must have length ``ambient_dim``.
    """
    if ambient_dim < 1:
        raise InvalidArgumentError("ambient dimension must be at least 1")
    ideal = object.__new__(MonomialIdeal)
    object.__setattr__(ideal, "ambient_dim", ambient_dim)
    object.__setattr__(ideal, "generators", tuple(map(Monomial, exps)))
    return ideal


def ideal_product(left: MonomialIdeal, right: MonomialIdeal) -> MonomialIdeal:
    """Product ideal, generated by pairwise products of generators."""
    _same_dim(left.ambient_dim, right.ambient_dim)
    prods = {
        tuple(a + b for a, b in zip(g.exponents, h.exponents))
        for g in left.generators
        for h in right.generators
    }
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


def _power_verdict(
    target: MonomialIdeal, base: Sequence[Monomial], a: Sequence[int], t: int, threshold: bool
) -> EqualityVerdict:
    """Whether ``target`` lies in the t-th power of the ideal generated by ``base``.

    The power is never formed, and the generators of ``target`` are walked
    in grlex order, so a NOT_EQUAL witness is the first one the power
    misses.  All generators must involve only the first len(a) variables,
    which carry the linear weight ``a``; let floor be the least weight in
    the base.  A monomial e lies in the t-th power when some base generator
    h divides e with e / h in the (t-1)-th power (for t = 1, when some h
    divides e).  A rest weighing less than (t-1)*floor is cut, as no product
    of t-1 base generators weighs less, and answers are memoised on (e, t)
    for the one call.  With ``threshold`` the base is every minimal monomial
    of weight >= L for some L, and the last factor is not tested: a rest
    that passes the cut weighs at least floor >= L, so it is a member.  The
    cut drops no member either: a rest of weight >= L lies in the
    threshold-L ideal, so some base generator divides it, and so its weight
    is at least floor.
    """
    k = len(a)
    factors = [(h.exponents[:k], sum(map(mul, a, h.exponents))) for h in base]
    floor = min(weight for _, weight in factors)
    memo: dict[tuple[tuple[int, ...], int], bool] = {}

    def in_first(e: tuple[int, ...]) -> bool:
        return any(all(map(le, h, e)) for h, _ in factors)

    def in_power(e: tuple[int, ...]) -> bool:
        if t == 1:
            return in_first(e)
        # Depth first over one generator per factor.  Each frame holds a
        # monomial, its weight, its power and its untried generators; an
        # explicit stack keeps a large t clear of the recursion limit.
        stack = [(e, sum(map(mul, a, e)), t, iter(factors))]
        while stack:
            e, weight, s, untried = stack[-1]
            for h, h_weight in untried:
                rest_weight = weight - h_weight
                if rest_weight < (s - 1) * floor or not all(map(le, h, e)):
                    continue
                if s == 2:
                    found = threshold or in_first(tuple(map(sub, e, h)))
                else:
                    rest = tuple(map(sub, e, h))
                    found = memo.get((rest, s - 1))
                    if found is None:
                        stack.append((rest, rest_weight, s - 1, iter(factors)))
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

    for g in target.generators:
        if not in_power(g.exponents[:k]):
            return EqualityVerdict(False, g)
    return EqualityVerdict(True, None)


def contains_monomial(ideal: MonomialIdeal, m: Monomial) -> bool:
    """True iff some generator divides m."""
    _same_dim(ideal.ambient_dim, m.ambient_dim)
    me = m.exponents
    return any(all(map(le, g.exponents, me)) for g in ideal.generators)


def contains(ideal: MonomialIdeal, f: Polynomial) -> bool:
    """Membership for polynomials: every term must lie in the ideal.

    The zero polynomial belongs to every ideal, including the zero ideal.
    """
    _same_dim(ideal.ambient_dim, f.ambient_dim)
    return all(contains_monomial(ideal, m) for m, _ in f.terms)


def colon(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """Colon ideal (I : m), computed generator-wise as g / gcd(g, m)."""
    _same_dim(ideal.ambient_dim, m.ambient_dim)
    me = m.exponents
    quotients = {
        tuple(max(g - x, 0) for g, x in zip(gen.exponents, me)) for gen in ideal.generators
    }
    return _ideal_from_grlex(ideal.ambient_dim, _grlex_antichain(quotients))


def saturate(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """Saturation (I : m^infinity), in closed form.

    Each generator g becomes g with the coordinates in supp(m) set to 0, and
    the result is minimalized once.  Proof: (g) : m^k = (g / gcd(g, m^k)),
    which is g with supp(m) zeroed once k >= max(g), and the quotient of a
    sum of principal monomial ideals is the sum of the quotients.
    """
    _same_dim(ideal.ambient_dim, m.ambient_dim)
    zeroed = {
        tuple(0 if x else g for g, x in zip(gen.exponents, m.exponents))
        for gen in ideal.generators
    }
    return _ideal_from_grlex(ideal.ambient_dim, _grlex_antichain(zeroed))


def radical(ideal: MonomialIdeal) -> MonomialIdeal:
    """Radical of a monomial ideal: squarefree supports of the generators."""
    supports = {tuple(1 if e > 0 else 0 for e in g.exponents) for g in ideal.generators}
    return _ideal_from_grlex(ideal.ambient_dim, _grlex_antichain(supports))


def ideals_equal(left: MonomialIdeal, right: MonomialIdeal) -> bool:
    """Equality of ideals in one ring: canonical generators make it ``==``."""
    _same_dim(left.ambient_dim, right.ambient_dim)
    return left == right
