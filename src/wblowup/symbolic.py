"""Symbolic powers of monomial ideals whose radical is a variable prime.

For a monomial ideal whose radical is generated by single variables, the
t-th symbolic power is the t-th ordinary power with the variables outside
the radical inverted, computed here as the t-th power of a saturation.  The
ordinary power always sits inside the symbolic one; the two can differ, and
the comparison returns a witness when they do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Iterator

from .errors import InvalidArgumentError, InvariantViolationError, RadicalNotPrimeError
from .monomials import (
    EqualityVerdict,
    MonomialIdeal,
    _has_divisor,
    _ideal_from_grlex,
    _integer,
    _power_generators,
    _power_verdict,
    _saturation,
)

__all__ = [
    "PrimaryMonomialIdeal",
    "as_primary",
    "symbolic_power",
    "symbolic_equals_ordinary",
    "compare_symbolic_power",
]


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(self, ideal: MonomialIdeal) -> None:
        if ideal.is_zero() or ideal.is_unit():
            raise InvalidArgumentError("the zero and unit ideals carry no radical data")
        indices = range(1, ideal.ambient_dim + 1)
        supports = [list(compress(indices, g)) for g in ideal.exponents]
        pure = frozenset(s[0] for s in supports if len(s) == 1)
        avoiding = [s for s in supports if pure.isdisjoint(s)]
        if avoiding:
            support = min(avoiding, key=lambda s: (len(s), s))
            raise RadicalNotPrimeError(
                f"radical generator with support {support} involves more than one variable"
            )
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "radical_vars", pure)


def as_primary(ideal: MonomialIdeal) -> PrimaryMonomialIdeal:
    """Attach the radical data, refusing ideals whose radical is not prime.

    The radical of a monomial ideal is prime exactly when it is generated
    by single variables; :class:`PrimaryMonomialIdeal` works it out.
    """
    return PrimaryMonomialIdeal(ideal)


def symbolic_power(primary: PrimaryMonomialIdeal, t: int) -> MonomialIdeal:
    """t-th symbolic power, taken as the t-th power of the saturated ideal.

    Its generators are those :func:`_symbolic_generators` draws, which
    has the proof.
    """
    t = _integer(t, "symbolic power exponent", 1)
    return _ideal_from_grlex(primary.ideal.ambient_dim, _symbolic_generators(primary, t))


def symbolic_equals_ordinary(primary: PrimaryMonomialIdeal, t: int) -> EqualityVerdict:
    """Compare symbolic and ordinary t-th powers.

    The ordinary power is always contained in the symbolic power, and this
    is checked (InvariantViolationError otherwise); on NOT_EQUAL the verdict
    carries a generator of the symbolic power that the ordinary power misses.
    The verdict and witness are those of :func:`compare_symbolic_power`,
    but only the work the answer needs is done: :func:`_verdict` draws the
    generators of the symbolic power lazily, so it stops at the first
    witness, and when sat(I) = I it answers EQUAL with nothing saturated or
    multiplied.
    """
    t = _integer(t, "symbolic power exponent", 1)
    return _verdict(primary, _symbolic_generators(primary, t), t)


def compare_symbolic_power(
    primary: PrimaryMonomialIdeal, t: int
) -> tuple[MonomialIdeal, EqualityVerdict]:
    """The t-th symbolic power together with its comparison to the ordinary one.

    That is :func:`symbolic_power`, and the verdict of
    :func:`symbolic_equals_ordinary` read off its generators.
    """
    t = _integer(t, "symbolic power exponent", 1)
    sym = symbolic_power(primary, t)
    return sym, _verdict(primary, sym.exponents, t)


def _symbolic_generators(primary: PrimaryMonomialIdeal, t: int) -> Iterator[tuple[int, ...]]:
    """The minimal generators of the t-th symbolic power, lazily, in grlex order.

    The symbolic power is I^t : m^infinity, where m is the product of the
    variables outside the radical, and it equals sat(I)^t with
    sat(I) = I : m^infinity, so I^t is never formed.  Proof: saturating a
    monomial ideal by m sets the coordinates of supp(m) to 0 in each of its
    generators, for any generating set, since (g) : m^k = (g / gcd(g, m^k))
    is g with supp(m) zeroed once k >= max(g), and the quotient of a sum of
    principal monomial ideals is the sum of the quotients (Miller–Sturmfels,
    ch. 1; see :func:`~wblowup.monomials.saturate`, which zeroes them
    through the same helper).  That map is multiplicative on monomials,
    and I^t is generated by the products of t generators of I, so
    I^t : m^infinity is generated by the products of t generators of
    sat(I), which generate sat(I)^t.  When every variable lies in the
    radical, m = 1 and the symbolic power is I^t.

    Nothing is done before the first generator is drawn.  Then sat(I) is
    formed, and the inclusion of I^t in it is checked as I <= sat(I): every
    generator of I must lie in sat(I) (InvariantViolationError otherwise, a
    raise that also runs under ``python -O``).  The generators come from the
    power stream of :mod:`monomials`, which yields the first, t times the
    first generator of sat(I), before any product step; its last product
    step is lazy.
    """
    ideal = primary.ideal
    keep = tuple(1 if i in primary.radical_vars else 0 for i in range(1, ideal.ambient_dim + 1))
    sat = _saturation(ideal.exponents, keep)
    for g in ideal.exponents:
        if not _has_divisor(sat, g):
            raise InvariantViolationError(f"generator {g} of the ideal escaped its saturation")
    yield from _power_generators(sat, t)


def _verdict(primary: PrimaryMonomialIdeal, sym: Iterable, t: int) -> EqualityVerdict:
    """EQUAL, or NOT_EQUAL with the first of the symbolic generators ``sym`` outside I^t.

    One scan of the generators' supports collects those of I that involve
    only radical variables.  When that is all of them, sat(I) = I, the
    powers are equal, and ``sym`` is not read.  Proof that sat(I) = I
    exactly when no minimal generator of I involves a variable off the
    radical: if none does, zeroing supp(m) leaves every generator as it is
    (see :func:`_symbolic_generators`).  If a minimal generator g does,
    zeroing supp(m) in g gives a proper divisor g' of g lying in sat(I).
    Were g' in I, some minimal generator of I would divide g' and so divide
    g properly, and g would not be minimal.  So g' lies in sat(I) but not
    in I.

    Otherwise ``sym``, in grlex order, is read up to its first generator
    outside I^t, each tested for membership by the search
    ``power_equality`` also uses, with the total degree as weight.  The
    symbolic generators involve only the radical variables, so only the
    generators of I supported there can be factors.
    """
    rad, gens, n = primary.radical_vars, primary.ideal.exponents, primary.ideal.ambient_dim
    indices = range(1, n + 1)
    base = [g for g in gens if rad.issuperset(compress(indices, g))]
    if len(base) == len(gens):
        return EqualityVerdict()
    return _power_verdict(sym, base, (1,) * n, t, threshold=False)
