"""Shared hypothesis strategies for the suite."""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import strategies as st

from wblowup.monomials import Monomial, MonomialIdeal, Polynomial, minimalize
from wblowup.weights import Weight


def exponent_tuples(n: int, max_exp: int = 4) -> st.SearchStrategy[tuple[int, ...]]:
    return st.tuples(*[st.integers(0, max_exp)] * n)


@st.composite
def monomials(draw, n: int | None = None, max_dim: int = 4, max_exp: int = 4) -> Monomial:
    if n is None:
        n = draw(st.integers(1, max_dim))
    return Monomial(draw(exponent_tuples(n, max_exp)))


@st.composite
def ideals(
    draw,
    n: int | None = None,
    max_dim: int = 4,
    max_gens: int = 5,
    max_exp: int = 4,
    allow_zero: bool = True,
) -> MonomialIdeal:
    if n is None:
        n = draw(st.integers(1, max_dim))
    min_gens = 0 if allow_zero else 1
    gens = draw(st.lists(monomials(n=n, max_exp=max_exp), min_size=min_gens, max_size=max_gens))
    return minimalize(gens, n)


@st.composite
def prime_radical_ideals(
    draw, n: int, max_exp: int = 4, max_mixed: int = 4
) -> MonomialIdeal:
    """Ideals whose radical is generated by a drawn set of variables.

    Each radical variable gets a pure power; every further generator, often
    one of several variables, involves at least one radical variable.
    """
    radical = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    gens = []
    for i in radical:
        e = [0] * n
        e[i] = draw(st.integers(1, max_exp))
        gens.append(Monomial(tuple(e)))
    for e in draw(st.lists(exponent_tuples(n, max_exp), max_size=max_mixed)):
        e = list(e)
        j = draw(st.sampled_from(radical))
        e[j] = max(e[j], 1)
        gens.append(Monomial(tuple(e)))
    return minimalize(gens, n)


@st.composite
def polynomials(
    draw,
    n: int | None = None,
    max_dim: int = 4,
    max_terms: int = 5,
    max_exp: int = 6,
    allow_zero: bool = False,
) -> Polynomial:
    if n is None:
        n = draw(st.integers(1, max_dim))
    coeffs = st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
    ).filter(lambda c: c != 0)
    pairs = draw(
        st.lists(
            st.tuples(monomials(n=n, max_exp=max_exp), coeffs),
            min_size=0 if allow_zero else 1,
            max_size=max_terms,
        )
    )
    poly = Polynomial.from_terms(pairs, n)
    if not allow_zero and poly.is_zero():
        # Duplicate monomials can cancel; fall back to a guaranteed term.
        poly = Polynomial.from_terms(pairs + [(Monomial((1,) + (0,) * (n - 1)), 1)], n)
    return poly


@st.composite
def weights(draw, max_dim: int = 5, max_entry: int = 12) -> Weight:
    n = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, n))
    entries = list(draw(st.tuples(*[st.integers(1, max_entry)] * k)))
    if math.gcd(*entries) != 1:
        entries[0] = 1  # force coprimality without discarding the draw
    return Weight(tuple(entries) + (0,) * (n - k))
