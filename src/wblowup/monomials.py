"""Exact arithmetic for monomials, polynomials and monomial ideals.

The ambient ring is C[x1, ..., xn] for a fixed n; variables are indexed
1-based throughout.  A monomial is an exponent tuple, a polynomial maps
monomials to nonzero exact rational coefficients, and a monomial ideal is
stored by its minimal monomial generating set, which is an antichain under
divisibility and is unique.

All values are immutable and every operation is a pure function, so values
can be shared freely (including across threads).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .errors import DimensionMismatchError

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
            raise ValueError("ambient dimension must be at least 1")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")

    @classmethod
    def one(cls, ambient_dim: int) -> "Monomial":
        return cls((0,) * ambient_dim)

    @classmethod
    def variable(cls, index: int, ambient_dim: int) -> "Monomial":
        """The monomial x_index; indices are 1-based."""
        if not 1 <= index <= ambient_dim:
            raise ValueError(f"variable index {index} out of range 1..{ambient_dim}")
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
            raise ValueError("monomial powers must be non-negative")
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

    Terms are kept sorted by :func:`grlex_key`, so equal polynomials compare
    equal structurally.  The zero polynomial is the empty term tuple; build
    values through :meth:`from_terms`, which combines duplicates and drops
    zero coefficients.
    """

    ambient_dim: int
    terms: tuple[tuple[Monomial, Fraction], ...] = ()

    def __post_init__(self) -> None:
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        for m, c in self.terms:
            _same_dim(m.ambient_dim, self.ambient_dim)
            if c == 0:
                raise ValueError("zero coefficient stored in a polynomial term")

    @classmethod
    def from_terms(
        cls,
        terms: Union[Mapping[Monomial, Coefficient], Iterable[tuple[Monomial, Coefficient]]],
        ambient_dim: int,
    ) -> "Polynomial":
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, Fraction] = {}
        for m, c in items:
            acc[m] = acc.get(m, Fraction(0)) + Fraction(c)
        cleaned = tuple(
            sorted(((m, c) for m, c in acc.items() if c != 0), key=lambda t: grlex_key(t[0]))
        )
        return cls(ambient_dim, cleaned)

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
    """A monomial ideal, stored by generators in canonical grlex order.

    The empty generator tuple is the zero ideal; the single generator 1 is
    the unit ideal.  Construct through :func:`minimalize` unless the
    generators are already known to be an antichain under divisibility.
    """

    ambient_dim: int
    generators: tuple[Monomial, ...] = ()

    def __post_init__(self) -> None:
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        for g in self.generators:
            _same_dim(g.ambient_dim, self.ambient_dim)
        ordered = tuple(sorted(set(self.generators), key=grlex_key))
        object.__setattr__(self, "generators", ordered)

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


def _tuple_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def divides(m1: Monomial, m2: Monomial) -> bool:
    """True iff m1 divides m2 componentwise."""
    _same_dim(m1.ambient_dim, m2.ambient_dim)
    return _tuple_divides(m1.exponents, m2.exponents)


def minimalize(gens: Iterable[Monomial], ambient_dim: Optional[int] = None) -> MonomialIdeal:
    """Minimal generating set of the ideal generated by ``gens``.

    Keeps exactly the divisibility-minimal monomials.  ``ambient_dim`` is
    required when ``gens`` is empty (the zero ideal of that ring).
    """
    pool = list(gens)
    if ambient_dim is None:
        if not pool:
            raise ValueError("ambient_dim is required for an empty generating set")
        ambient_dim = pool[0].ambient_dim
    for g in pool:
        _same_dim(g.ambient_dim, ambient_dim)
    # Ascending degree: any divisor of m is ranked before m, so one pass works.
    exps = sorted({g.exponents for g in pool}, key=lambda e: (sum(e), tuple(-x for x in e)))
    kept: list[tuple[int, ...]] = []
    for e in exps:
        if not any(_tuple_divides(f, e) for f in kept):
            kept.append(e)
    return MonomialIdeal(ambient_dim, tuple(Monomial(e) for e in kept))


def ideal_product(left: MonomialIdeal, right: MonomialIdeal) -> MonomialIdeal:
    """Product ideal, generated by pairwise products of generators."""
    _same_dim(left.ambient_dim, right.ambient_dim)
    prods = {
        tuple(a + b for a, b in zip(g.exponents, h.exponents))
        for g in left.generators
        for h in right.generators
    }
    return minimalize((Monomial(e) for e in prods), left.ambient_dim)


def ideal_power(ideal: MonomialIdeal, d: int) -> MonomialIdeal:
    """d-th power; the 0-th power is the unit ideal."""
    if d < 0:
        raise ValueError("ideal powers must have non-negative exponent")
    if d == 0:
        return MonomialIdeal.unit(ideal.ambient_dim)
    acc = ideal
    for _ in range(d - 1):
        acc = ideal_product(acc, ideal)
    return acc


def contains_monomial(ideal: MonomialIdeal, m: Monomial) -> bool:
    """True iff some generator divides m."""
    _same_dim(ideal.ambient_dim, m.ambient_dim)
    me = m.exponents
    return any(_tuple_divides(g.exponents, me) for g in ideal.generators)


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
    quotients = (
        Monomial(tuple(max(g - x, 0) for g, x in zip(gen.exponents, me)))
        for gen in ideal.generators
    )
    return minimalize(quotients, ideal.ambient_dim)


def saturate(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """Saturation (I : m^infinity): iterate colon until it stabilizes."""
    _same_dim(ideal.ambient_dim, m.ambient_dim)
    current = ideal
    while True:
        nxt = colon(current, m)
        if nxt == current:
            return current
        current = nxt


def radical(ideal: MonomialIdeal) -> MonomialIdeal:
    """Radical of a monomial ideal: squarefree supports of the generators."""
    supports = (
        Monomial(tuple(1 if e > 0 else 0 for e in g.exponents)) for g in ideal.generators
    )
    return minimalize(supports, ideal.ambient_dim)


def ideals_equal(left: MonomialIdeal, right: MonomialIdeal) -> bool:
    """Equality by mutual generator membership (robust to generator order)."""
    _same_dim(left.ambient_dim, right.ambient_dim)
    return all(contains_monomial(right, g) for g in left.generators) and all(
        contains_monomial(left, g) for g in right.generators
    )
