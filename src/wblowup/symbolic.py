"""Symbolic powers of monomial ideals whose radical is a variable prime.

For a monomial ideal whose radical is generated by single variables, the
t-th symbolic power is the t-th ordinary power with the variables outside
the radical inverted, computed here as the t-th power of a saturation.  The
ordinary power always sits inside the symbolic one; the two can differ, and
the comparison returns a witness when they do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Iterable

from .errors import InvalidArgumentError, InvariantViolationError, RadicalNotPrimeError
from .monomials import (
    EqualityVerdict,
    Monomial,
    MonomialIdeal,
    _grlex_antichain,
    _has_divisor,
    _integer,
    _power_verdict,
    ideal_power,
    saturate,
)

__all__ = [
    "PrimaryMonomialIdeal",
    "as_primary",
    "symbolic_power",
    "symbolic_equals_ordinary",
    "compare_symbolic_power",
]


@dataclass(frozen=True, slots=True)
class PrimaryMonomialIdeal:
    """A monomial ideal together with its variable-generated radical.

    ``radical_vars`` holds the 1-based indices of the variables generating
    the radical, and the constructor works it out from the ideal by one
    scan of the generators' supports.  The name records the intended use;
    the ideal itself is not required to be primary, only to have a prime
    monomial radical: the variables generate rad(I) exactly when I holds a
    pure power of each of them and of no other variable, and every
    generator involves one of them.  The zero and unit ideals are refused
    (INVALID_ARGUMENT), and so is an ideal with a mixed generator of rad(I)
    such as x1*x2 (RADICAL_NOT_PRIME): it signals several minimal primes,
    and the symbolic power would need a full primary decomposition, which
    is out of scope here.

    Proof, for I neither zero nor the unit ideal: the minimal generators of
    rad(I) are the minimal supports of the generators of I.  So x_i
    generates rad(I) exactly when I holds a pure power of x_i; call such
    variables pure.  A support of several variables is minimal only if it
    avoids the pure ones, so every multi-variable generator of rad(I) is
    the support of an avoiding generator.  The least avoiding support in
    the order (len(s), s), which is grlex order on squarefree monomials, is
    itself a generator of rad(I), since a proper subset that is a support
    would be a pure variable or a smaller avoiding support.  So it is the
    first multi-variable generator of rad(I), and the constructor names it.
    """

    ideal: MonomialIdeal
    radical_vars: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        ideal = self.ideal
        if ideal.is_zero() or ideal.is_unit():
            raise InvalidArgumentError("the zero and unit ideals carry no radical data")
        supports = [[i for i, e in enumerate(g, 1) if e] for g in ideal.exponents]
        pure = frozenset(s[0] for s in supports if len(s) == 1)
        avoiding = [s for s in supports if pure.isdisjoint(s)]
        if avoiding:
            support = min(avoiding, key=lambda s: (len(s), s))
            raise RadicalNotPrimeError(
                f"radical generator with support {support} involves more than one variable"
            )
        object.__setattr__(self, "radical_vars", pure)


def as_primary(ideal: MonomialIdeal) -> PrimaryMonomialIdeal:
    """Attach the radical data, refusing ideals whose radical is not prime.

    The radical of a monomial ideal is prime exactly when it is generated
    by single variables; :class:`PrimaryMonomialIdeal` works it out.
    """
    return PrimaryMonomialIdeal(ideal)


def symbolic_power(primary: PrimaryMonomialIdeal, t: int) -> MonomialIdeal:
    """t-th symbolic power, taken as the t-th power of the saturated ideal.

    The symbolic power is I^t : m^infinity, where m is the product of the
    variables outside the radical, and it equals (I : m^infinity)^t, so
    I^t is never formed.  Proof: saturating a monomial ideal by m sets the
    coordinates of supp(m) to 0 in each of its generators (see
    :func:`saturate`), for any generating set.  That map is multiplicative
    on monomials, and I^t is generated by the products of t generators of
    I, so I^t : m^infinity is generated by the products of t generators of
    I : m^infinity, which generate (I : m^infinity)^t.  When every variable
    lies in the radical, m = 1 and the symbolic power equals I^t.
    """
    t = _exponent(t)
    return ideal_power(_checked_saturation(primary), t)


def symbolic_equals_ordinary(primary: PrimaryMonomialIdeal, t: int) -> EqualityVerdict:
    """Compare symbolic and ordinary t-th powers.

    The ordinary power is always contained in the symbolic power, and this
    is checked (InvariantViolationError otherwise); on NOT_EQUAL the verdict
    carries a generator of the symbolic power that the ordinary power misses.
    The verdict and witness are those of :func:`compare_symbolic_power`,
    but only the work the answer needs is done.  When sat(I) = I, which
    :func:`_saturated` reads off the generators, the answer is EQUAL and
    nothing is saturated or multiplied.  Otherwise P = sat(I)^(t-1) is
    formed, and the minimal generators of sat(I)^t are drawn lazily, in
    grlex order, from the products of P with sat(I): the search stops at
    the first one that I^t misses, and only on EQUAL is every product
    scanned.
    """
    t = _exponent(t)
    if _saturated(primary):
        return EqualityVerdict()
    sat = _checked_saturation(primary)
    power = ideal_power(sat, t - 1).exponents
    products = {tuple(map(add, g, h)) for g in power for h in sat.exponents}
    return _first_missed(primary, _grlex_antichain(products), t)


def compare_symbolic_power(
    primary: PrimaryMonomialIdeal, t: int
) -> tuple[MonomialIdeal, EqualityVerdict]:
    """The t-th symbolic power together with its comparison to the ordinary one.

    The symbolic power is formed as in :func:`symbolic_power`.  The
    inclusion of I^t in it is checked without I^t: every generator of I
    lying in the saturation sat(I) gives I^t <= sat(I)^t.  When sat(I) = I
    (see :func:`_saturated`) the two powers are equal.  Otherwise the
    generators of sat(I)^t are walked in grlex order and each is tested for
    membership in I^t by the search ``power_equality`` also uses, with the
    total degree as weight, so on NOT_EQUAL the witness is the first one
    I^t misses.  Those generators involve only the radical variables, so
    only the generators of I supported there can be factors.
    """
    t = _exponent(t)
    if _saturated(primary):
        return ideal_power(primary.ideal, t), EqualityVerdict()
    sym = ideal_power(_checked_saturation(primary), t)
    return sym, _first_missed(primary, sym.exponents, t)


def _exponent(t: int) -> int:
    """``t`` as a positive int, or INVALID_ARGUMENT."""
    t = _integer(t, "symbolic power exponent")
    if t < 1:
        raise InvalidArgumentError(f"symbolic power exponent must be positive, got {t}")
    return t


def _saturated(primary: PrimaryMonomialIdeal) -> bool:
    """Whether sat(I) = I: no minimal generator of I involves a variable off the radical.

    sat(I) is I : m^infinity for the product m of the variables outside the
    radical.  Proof: if no minimal generator involves supp(m), zeroing
    supp(m) leaves every one of them as it is, so sat(I) = I (see
    :func:`saturate`).  If a minimal generator g does, zeroing supp(m) in g
    gives a proper divisor g' of g lying in sat(I).  Were g' in I, some
    minimal generator of I would divide g' and so divide g properly, and g
    would not be minimal.  So g' lies in sat(I) but not in I.
    """
    rad = primary.radical_vars
    return all(i in rad for g in primary.ideal.exponents for i, e in enumerate(g, 1) if e)


def _checked_saturation(primary: PrimaryMonomialIdeal) -> MonomialIdeal:
    """sat(I), by the product of the variables outside the radical.

    Checks that every generator of I lies in sat(I).
    """
    ideal = primary.ideal
    n = ideal.ambient_dim
    outside = tuple(0 if i in primary.radical_vars else 1 for i in range(1, n + 1))
    sat = saturate(ideal, Monomial(outside))
    for g in ideal.exponents:
        if not _has_divisor(sat.exponents, g):
            raise InvariantViolationError(f"generator {g} of the ideal escaped its saturation")
    return sat


def _first_missed(
    primary: PrimaryMonomialIdeal, sym: Iterable[tuple[int, ...]], t: int
) -> EqualityVerdict:
    """EQUAL, or NOT_EQUAL with the first of the generators ``sym`` outside I^t."""
    rad = primary.radical_vars
    base = [g for g in primary.ideal.exponents if all(i in rad for i, e in enumerate(g, 1) if e)]
    n = primary.ideal.ambient_dim
    return _power_verdict(sym, base, (1,) * n, t, threshold=False)
