"""Symbolic powers of monomial ideals whose radical is a variable prime.

For a monomial ideal whose radical is generated by single variables, the
t-th symbolic power is the t-th ordinary power with the variables outside
the radical inverted, computed here as a saturation.  The ordinary power
always sits inside the symbolic one; the two can differ, and the comparison
returns a witness when they do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgumentError, InvariantViolationError, RadicalNotPrimeError
from .monomials import (
    EqualityVerdict,
    Monomial,
    MonomialIdeal,
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
]


@dataclass(frozen=True, slots=True)
class PrimaryMonomialIdeal:
    """A monomial ideal together with its variable-generated radical.

    ``radical_vars`` holds the 1-based indices of the variables generating
    the radical.  The name records the intended use; the ideal itself is
    not required to be primary, only to have a prime monomial radical.
    """

    ideal: MonomialIdeal
    radical_vars: frozenset[int]

    def __post_init__(self) -> None:
        if not self.radical_vars:
            raise InvalidArgumentError("the radical must involve at least one variable")
        n = self.ideal.ambient_dim
        for i in self.radical_vars:
            if not 1 <= i <= n:
                raise InvalidArgumentError(f"radical variable index {i} out of range 1..{n}")


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
    """t-th symbolic power: the t-th power saturated off the radical.

    Saturation is by the product of all variables outside the radical; when
    every variable lies in the radical the ordinary power is returned
    unchanged.
    """
    if t < 1:
        raise InvalidArgumentError(f"symbolic power exponent must be positive, got {t}")
    power = ideal_power(primary.ideal, t)
    n = primary.ideal.ambient_dim
    outside = tuple(0 if i in primary.radical_vars else 1 for i in range(1, n + 1))
    if not any(outside):
        return power
    return saturate(power, Monomial(outside))


def symbolic_equals_ordinary(primary: PrimaryMonomialIdeal, t: int) -> EqualityVerdict:
    """Compare symbolic and ordinary t-th powers.

    The ordinary power is always contained in the symbolic power, and this
    is checked (InvariantViolationError otherwise); on NOT_EQUAL the verdict
    carries a generator of the symbolic power that the ordinary power misses.
    """
    ordinary = ideal_power(primary.ideal, t)
    sym = symbolic_power(primary, t)
    for g in ordinary.generators:
        if not contains_monomial(sym, g):
            raise InvariantViolationError(
                f"ordinary power generator {g.exponents} escaped the symbolic power"
            )
    for g in sym.generators:
        if not contains_monomial(ordinary, g):
            return EqualityVerdict(False, g)
    return EqualityVerdict(True, None)
