"""Symbolic powers of monomial ideals whose radical is a variable prime.

For a monomial ideal whose radical is generated by single variables, the
t-th symbolic power is the t-th ordinary power with the variables outside
the radical inverted, computed here as the t-th power of a saturation.  The
ordinary power always sits inside the symbolic one; the two can differ, and
the comparison returns a witness when they do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgumentError, InvariantViolationError, RadicalNotPrimeError
from .monomials import (
    EqualityVerdict,
    Monomial,
    MonomialIdeal,
    _power_verdict,
    contains_monomial,
    ideal_power,
    radical,
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
    the radical.  The name records the intended use; the ideal itself is
    not required to be primary, only to have a prime monomial radical: the
    variables generate rad(I) exactly when I holds a pure power of each of
    them and of no other variable, and every generator involves one of them.
    """

    ideal: MonomialIdeal
    radical_vars: frozenset[int]

    def __post_init__(self) -> None:
        rad = self.radical_vars
        pure = set()
        for g in self.ideal.generators:
            support = [i for i, e in enumerate(g.exponents, 1) if e]
            if rad.isdisjoint(support):
                break
            if len(support) == 1:
                pure.add(support[0])
        else:
            if rad and pure == rad:
                return
        raise InvalidArgumentError(f"variables {sorted(rad)} do not generate the ideal's radical")


def as_primary(ideal: MonomialIdeal) -> PrimaryMonomialIdeal:
    """Attach the radical data, refusing ideals whose radical is not prime.

    The radical of a monomial ideal is prime exactly when it is generated
    by single variables; a mixed generator such as x1*x2 signals several
    minimal primes and the symbolic power would need a full primary
    decomposition, which is out of scope here.
    """
    if ideal.is_zero() or ideal.is_unit():
        raise InvalidArgumentError("the zero and unit ideals carry no radical data")
    rad = radical(ideal)
    indices: set[int] = set()
    for g in rad.generators:
        support = [i for i, e in enumerate(g.exponents, start=1) if e > 0]
        if len(support) != 1:
            raise RadicalNotPrimeError(
                f"radical generator with support {support} involves more than one variable"
            )
        indices.add(support[0])
    return PrimaryMonomialIdeal(ideal, frozenset(indices))


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
    return ideal_power(_checked_saturation(primary, t), t)


def symbolic_equals_ordinary(primary: PrimaryMonomialIdeal, t: int) -> EqualityVerdict:
    """Compare symbolic and ordinary t-th powers.

    The ordinary power is always contained in the symbolic power, and this
    is checked (InvariantViolationError otherwise); on NOT_EQUAL the verdict
    carries a generator of the symbolic power that the ordinary power misses.
    The verdict is that of :func:`compare_symbolic_power`, which describes
    how it is reached; when the saturation removes nothing, no power is
    formed at all.
    """
    sat = _checked_saturation(primary, t)
    if sat == primary.ideal:
        return EqualityVerdict(True, None)
    return _first_missed(primary, ideal_power(sat, t), t)


def compare_symbolic_power(
    primary: PrimaryMonomialIdeal, t: int
) -> tuple[MonomialIdeal, EqualityVerdict]:
    """The t-th symbolic power together with its comparison to the ordinary one.

    The symbolic power is formed as in :func:`symbolic_power`.  The
    inclusion of I^t in it is checked without I^t: every generator of I
    lying in the saturation sat(I) gives I^t <= sat(I)^t.  When sat(I) = I
    the two powers are equal.  Otherwise the generators of sat(I)^t are
    walked in grlex order and each is tested for membership in I^t by the
    search ``power_equality`` also uses, with the total degree as weight,
    so on NOT_EQUAL the witness is the first one I^t misses.  Those
    generators involve only the radical variables, so only the generators
    of I supported there can be factors.
    """
    sat = _checked_saturation(primary, t)
    sym = ideal_power(sat, t)
    if sat == primary.ideal:
        return sym, EqualityVerdict(True, None)
    return sym, _first_missed(primary, sym, t)


def _checked_saturation(primary: PrimaryMonomialIdeal, t: int) -> MonomialIdeal:
    """sat(I), by the product of the variables outside the radical.

    Checks that t is positive and that every generator of I lies in sat(I).
    """
    if t < 1:
        raise InvalidArgumentError(f"symbolic power exponent must be positive, got {t}")
    ideal = primary.ideal
    n = ideal.ambient_dim
    outside = tuple(0 if i in primary.radical_vars else 1 for i in range(1, n + 1))
    sat = saturate(ideal, Monomial(outside))
    for g in ideal.generators:
        if not contains_monomial(sat, g):
            raise InvariantViolationError(
                f"generator {g.exponents} of the ideal escaped its saturation"
            )
    return sat


def _first_missed(
    primary: PrimaryMonomialIdeal, sym: MonomialIdeal, t: int
) -> EqualityVerdict:
    """EQUAL, or NOT_EQUAL with the first generator of ``sym`` outside I^t."""
    rad = primary.radical_vars
    base = [
        g
        for g in primary.ideal.generators
        if all(i in rad for i, e in enumerate(g.exponents, start=1) if e)
    ]
    return _power_verdict(sym, base, (1,) * primary.ideal.ambient_dim, t, threshold=False)
