"""Monomial, polynomial and ideal arithmetic."""

from __future__ import annotations

import gc
import itertools
import math
import pickle
import random
import sys
from bisect import bisect_right
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from operator import add
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_antichain,
    brute_has_power_in,
    brute_saturate,
    grlex_key,
    ideals_equal,
)
from strategies import exponent_tuples, ideals, monomials, weights
from wblowup import monomials as monomials_module
from wblowup.charts import pushforward_membership
from wblowup.errors import DimensionMismatchError, InvalidArgumentError, ZeroPolynomialError
from wblowup.monomials import (
    EqualityVerdict,
    Monomial,
    MonomialIdeal,
    Polynomial,
    _DENSE,
    _grlex,
    _grlex_antichain,
    _has_divisor,
    _power_generators,
    colon,
    contains,
    contains_monomial,
    divides,
    ideal_power,
    ideal_product,
    minimalize,
    radical,
    saturate,
)
from wblowup.weights import (
    Weight,
    _minimal_generator_exponents,
    monomial_weight,
    sigma_wt,
    weighted_ideal_gens,
)


def M(*exps: int) -> Monomial:
    return Monomial(tuple(exps))


def I(*gens: Monomial) -> MonomialIdeal:
    return minimalize(gens)


class TestMonomial:
    def test_validation(self):
        with pytest.raises(ValueError):
            Monomial(())
        with pytest.raises(ValueError):
            Monomial((1, -1))

    def test_multiplication_and_power(self):
        assert M(1, 2) * M(3, 0) == M(4, 2)
        assert M(1, 2) ** 3 == M(3, 6)
        assert M(1, 2) ** 0 == M(0, 0)
        with pytest.raises(DimensionMismatchError):
            M(1) * M(1, 2)
        with pytest.raises(InvalidArgumentError, match="monomial power exponent must be non-negative, got -1"):
            M(1, 2) ** -1
        with pytest.raises(TypeError):
            M(1) * 3

    def test_variable_and_one(self):
        assert Monomial.variable(2, 3) == M(0, 1, 0)
        assert Monomial.one(2).is_one()
        with pytest.raises(ValueError):
            Monomial.variable(0, 3)
        with pytest.raises(ValueError):
            Monomial.variable(4, 3)

    def test_public_constructor_validates(self):
        with pytest.raises(InvalidArgumentError, match="ambient dimension must be at least 1"):
            Monomial(())
        with pytest.raises(InvalidArgumentError, match=r"negative exponent in \(1, -1\)"):
            Monomial((1, -1))
        listed = Monomial([1, 2])
        assert type(listed.exponents) is tuple
        assert listed == M(1, 2) and hash(listed) == hash(M(1, 2))

    @pytest.mark.parametrize(
        "build",
        [lambda: Monomial((1.5, 2)), lambda: Monomial(("a", 1)), lambda: Monomial((1,)) ** 2.0],
    )
    def test_non_integer_exponents_refused(self, build):
        # A fractional "monomial" would otherwise enter exact ideal arithmetic.
        with pytest.raises(InvalidArgumentError) as exc:
            build()
        assert exc.value.code == "INVALID_ARGUMENT"

    def test_refusals_keep_their_messages_and_order(self):
        # The exponents are read as ints first, then the dimension and the
        # signs are checked, so a tuple that breaks several rules gets the
        # first refusal.
        cases = [
            ((), "ambient dimension must be at least 1"),
            ((1, -1), "negative exponent in (1, -1)"),
            ((1.5, 2), "non-integer exponent in (1.5, 2)"),
            (("a", 1), "non-integer exponent in ('a', 1)"),
            ((-1, 1.5), "non-integer exponent in (-1, 1.5)"),
        ]
        for exps, message in cases:
            with pytest.raises(InvalidArgumentError) as exc:
                Monomial(exps)
            assert (exc.value.code, str(exc.value)) == ("INVALID_ARGUMENT", message)

    def test_dataclass_behaviour(self):
        m = Monomial(exponents=(1, 2))
        assert m == M(1, 2) and hash(m) == hash(M(1, 2))
        assert repr(m) == "Monomial(exponents=(1, 2))"
        assert [f.name for f in fields(Monomial)] == ["exponents"]
        assert replace(m, exponents=[3, 0]) == M(3, 0)
        assert type(replace(m, exponents=[3, 0]).exponents) is tuple
        with pytest.raises(InvalidArgumentError, match="negative exponent"):
            replace(m, exponents=(3, -1))
        assert pickle.loads(pickle.dumps(m)) == m
        with pytest.raises(FrozenInstanceError):
            m.exponents = (2, 2)
        assert m.exponents == (1, 2)

    def test_errors_carry_a_code(self):
        with pytest.raises(InvalidArgumentError) as negative:
            Monomial((1, -1))
        with pytest.raises(InvalidArgumentError) as zero_coefficient:
            Polynomial(2, ((M(1, 0), Fraction(0)),))
        assert negative.value.code == "INVALID_ARGUMENT"
        assert zero_coefficient.value.code == "INVALID_ARGUMENT"


class TestPolynomial:
    def test_like_terms_combine(self):
        f = Polynomial.from_terms([(M(1, 0), 1), (M(1, 0), Fraction(1, 2))], 2)
        assert f.terms == ((M(1, 0), Fraction(3, 2)),)
        g = Polynomial(2, ((M(0, 2), 1), (M(1, 0), 3), (M(2, 0), -1), (M(1, 0), 1)))
        assert g.monomials() == (M(1, 0), M(2, 0), M(0, 2))
        assert Polynomial.zero(2).monomials() == ()

    def test_cancellation_gives_zero(self):
        f = Polynomial.from_terms([(M(1, 0), 1), (M(1, 0), -1)], 2)
        assert f.is_zero()
        assert f == Polynomial.zero(2)

    def test_product(self):
        f = Polynomial.from_terms([(M(1, 0), 1), (M(0, 1), -1)], 2)
        g = Polynomial.from_terms([(M(1, 0), 1), (M(0, 1), 1)], 2)
        assert f * g == Polynomial.from_terms([(M(2, 0), 1), (M(0, 2), -1)], 2)
        with pytest.raises(TypeError):
            Polynomial(1) * 3

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(2, ((M(1, 0), Fraction(0)),))
        with pytest.raises(InvalidArgumentError, match="ambient dimension must be at least 1") as e:
            Polynomial(0)
        assert e.value.code == "INVALID_ARGUMENT"

    def test_dataclass_behaviour(self):
        f = Polynomial(ambient_dim=2, terms=[(M(0, 1), 2), (M(1, 0), Fraction(1, 2))])
        assert f.terms == ((M(1, 0), Fraction(1, 2)), (M(0, 1), Fraction(2)))
        same = Polynomial.from_terms([(M(1, 0), Fraction(1, 2)), (M(0, 1), 2)], 2)
        assert f == same and hash(f) == hash(same)
        assert [field.name for field in fields(Polynomial)] == ["ambient_dim", "terms"]
        assert repr(f) == (
            "Polynomial(ambient_dim=2, terms=((Monomial(exponents=(1, 0)), Fraction(1, 2)), "
            "(Monomial(exponents=(0, 1)), Fraction(2, 1))))"
        )
        assert replace(f, terms=[(M(1, 0), 1), (M(1, 0), -1)]) == Polynomial.zero(2)
        with pytest.raises(DimensionMismatchError, match=r"^ambient dimensions differ: 1 vs 2$"):
            replace(f, terms=[(M(1), 1)])
        assert pickle.loads(pickle.dumps(f)) == f
        with pytest.raises(FrozenInstanceError):
            f.terms = ()

    def test_refusal_order(self):
        # The dimension first, then term by term: its dimension, its
        # coefficient's type, a zero coefficient.
        cases = [
            ((0, [(M(1), 0.5)]), "ambient dimension must be at least 1"),
            ((2, [(M(1), 0.5)]), "ambient dimensions differ: 1 vs 2"),
            ((2, [(M(1, 0), 0.5), (M(1), 1)]), "coefficient must be an int or a Fraction, got 0.5"),
            ((2, [(M(1, 0), 0), (M(1), 1)]), "zero coefficient stored in a polynomial term"),
        ]
        for args, message in cases:
            with pytest.raises((InvalidArgumentError, DimensionMismatchError)) as exc:
                Polynomial(*args)
            assert str(exc.value) == message, args

    @pytest.mark.parametrize("coefficient", [0.1, 0.5, "1/2"])
    def test_inexact_coefficients_refused(self, coefficient):
        # Fraction(0.1) would store 3602879701896397/36028797018963968.
        for build in (
            lambda: Polynomial(1, ((M(1), coefficient),)),
            lambda: Polynomial.from_terms([(M(1), coefficient)], 1),
        ):
            with pytest.raises(InvalidArgumentError, match="coefficient must be an int or a Fr"):
                build()

    def test_cancelling_terms_give_zero(self):
        f = Polynomial(1, ((M(1), 1), (M(1), -1)))
        assert f.is_zero()
        assert contains(MonomialIdeal.zero(1), f)
        with pytest.raises(ZeroPolynomialError):
            sigma_wt(Weight((1,)), f)
        with pytest.raises(ZeroPolynomialError):
            pushforward_membership(Weight((1,)), 1, f)

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=150)
    def test_matches_from_terms(self, data, n):
        coefficients = st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3)
        terms = data.draw(
            st.lists(st.tuples(monomials(n=n, max_exp=2), coefficients.filter(bool)), max_size=8)
        )
        terms = data.draw(st.permutations(terms + terms[: len(terms) // 2]))
        f = Polynomial(n, tuple(terms))
        assert f == Polynomial.from_terms(terms, n)
        sums: dict[Monomial, Fraction] = {}
        for m, c in terms:
            sums[m] = sums.get(m, Fraction(0)) + c
        expected = sorted(((m, c) for m, c in sums.items() if c), key=lambda t: grlex_key(t[0]))
        assert f.terms == tuple(expected)
        assert all(type(c) is Fraction for _, c in f.terms)
        assert f.monomials() == tuple(m for m, _ in expected)


class TestDivides:
    def test_examples(self):
        assert divides(M(1, 2, 0), M(3, 2, 0))
        assert not divides(M(0, 0, 1), M(1, 1, 0))
        assert divides(M(0, 0, 0), M(5, 1, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            divides(M(1), M(1, 0))


class TestMinimalize:
    def test_example(self):
        ideal = minimalize([M(1, 1), M(2, 1), M(0, 3)])
        assert ideal.generators == (M(1, 1), M(0, 3))

    def test_empty_is_zero_ideal(self):
        assert minimalize([], 3) == MonomialIdeal.zero(3)
        with pytest.raises(ValueError):
            minimalize([])
        with pytest.raises(InvalidArgumentError, match="ambient dimension must be at least 1") as e:
            MonomialIdeal(0, ())
        assert e.value.code == "INVALID_ARGUMENT"

    def test_unit_absorbs(self):
        assert minimalize([M(0, 0), M(2, 1)]) == MonomialIdeal.unit(2)

    def test_dimension_mismatch_names_the_first_offender(self):
        for gens, first in [
            ((M(1, 0), M(1, 0, 0), M(1, 0, 0, 0)), 3),
            ((M(1, 0, 0, 0), M(1, 0, 0), M(1, 0, 0, 0)), 4),
        ]:
            with pytest.raises(DimensionMismatchError) as exc:
                MonomialIdeal(2, gens)
            assert str(exc.value) == f"ambient dimensions differ: {first} vs 2"

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=150)
    def test_idempotent_and_order_independent(self, data, n):
        gens = data.draw(st.lists(monomials(n=n), max_size=6))
        ideal = minimalize(gens, n)
        assert minimalize(ideal.generators, n) == ideal
        shuffled = list(gens)
        random.Random(0).shuffle(shuffled)
        assert minimalize(shuffled, n) == ideal

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=150)
    def test_matches_public_constructor(self, data, n):
        # The constructor keeps the divisibility-minimal generators in grlex
        # order, so a redundant, repeated or shuffled generating list gives
        # the same value as minimalize.
        gens = data.draw(st.lists(monomials(n=n), max_size=8))
        shuffled = gens * 2
        random.Random(0).shuffle(shuffled)
        assert MonomialIdeal(n, tuple(shuffled)) == minimalize(gens, n)

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=150)
    def test_preserves_membership(self, data, n):
        gens = data.draw(st.lists(monomials(n=n), max_size=6))
        probe = data.draw(monomials(n=n, max_exp=6))
        ideal = minimalize(gens, n)
        raw = any(divides(g, probe) for g in gens)
        assert contains_monomial(ideal, probe) == raw


class TestProductAndPower:
    def test_product_example(self):
        left = I(M(1, 0, 0), M(0, 0, 1))
        right = I(M(0, 1, 0))
        assert ideal_product(left, right).generators == (M(1, 1, 0), M(0, 1, 1))

    def test_unit_and_zero_absorb(self):
        ideal = I(M(2, 0), M(1, 1))
        assert ideal_product(ideal, MonomialIdeal.unit(2)) == ideal
        assert ideal_product(ideal, MonomialIdeal.zero(2)).is_zero()

    def test_power_examples(self):
        assert ideal_power(I(M(1, 0), M(0, 1)), 2).generators == (
            M(2, 0),
            M(1, 1),
            M(0, 2),
        )
        assert ideal_power(MonomialIdeal.zero(2), 0) == MonomialIdeal.unit(2)
        assert ideal_power(I(M(1, 0)), 0) == MonomialIdeal.unit(2)
        with pytest.raises(ValueError):
            ideal_power(I(M(1, 0)), -1)
        # Every product has degree 30, the equal-degree worst case of the
        # antichain scan: C(33, 3) = 5,456 generators.
        ones = Weight((1, 1, 1, 1))
        cube = ideal_power(weighted_ideal_gens(ones, 10), 3)
        assert cube == weighted_ideal_gens(ones, 30)
        assert len(cube.exponents) == math.comb(33, 3)

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=80)
    def test_product_commutative(self, data, n):
        left = data.draw(ideals(n=n, max_gens=4, max_exp=3))
        right = data.draw(ideals(n=n, max_gens=4, max_exp=3))
        assert ideal_product(left, right) == ideal_product(right, left)

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=60)
    def test_product_associative(self, data, n):
        a = data.draw(ideals(n=n, max_gens=3, max_exp=3))
        b = data.draw(ideals(n=n, max_gens=3, max_exp=3))
        c = data.draw(ideals(n=n, max_gens=3, max_exp=3))
        assert ideal_product(ideal_product(a, b), c) == ideal_product(a, ideal_product(b, c))

    @given(st.data(), st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_power_stream_starts_with_the_least_product(self, data, n, d):
        # d times the first generator comes first, then the rest of the
        # minimal d-fold sums, in grlex order.
        exps = data.draw(ideals(n=n, max_gens=4, max_exp=3, allow_zero=False)).exponents
        sums = {tuple(map(sum, zip(*gs))) for gs in itertools.product(exps, repeat=d)}
        stream = list(_power_generators(exps, d))
        assert stream[0] == tuple(d * x for x in exps[0])
        assert stream == grlex_sorted(brute_antichain(sums))

    @given(st.data(), st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=60)
    def test_power_additive(self, data, n, d1, d2):
        ideal = data.draw(ideals(n=n, max_gens=3, max_exp=3))
        assert ideal_power(ideal, d1 + d2) == ideal_product(
            ideal_power(ideal, d1), ideal_power(ideal, d2)
        )


class TestContains:
    def test_polynomial_membership(self):
        ideal = I(M(2, 0), M(0, 3))
        inside = Polynomial.from_terms([(M(2, 1), Fraction(3, 2)), (M(0, 5), -1)], 2)
        outside = Polynomial.from_terms([(M(2, 1), 1), (M(1, 1), 1)], 2)
        assert contains(ideal, inside)
        assert not contains(ideal, outside)

    def test_zero_polynomial_is_everywhere(self):
        assert contains(MonomialIdeal.zero(2), Polynomial.zero(2))
        assert contains(I(M(1, 0)), Polynomial.zero(2))

    def test_nothing_else_in_zero_ideal(self):
        f = Polynomial.from_monomial(M(1, 0))
        assert not contains(MonomialIdeal.zero(2), f)

    def test_unit_contains_everything(self):
        f = Polynomial.from_terms([(M(0, 0), 7), (M(3, 1), -2)], 2)
        assert contains(MonomialIdeal.unit(2), f)


@st.composite
def tuples_of_degree(draw, n: int, degree: int) -> tuple[int, ...]:
    """An exponent tuple of length n and total degree ``degree``."""
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))


def below_degree(e: tuple[int, ...], degree: int) -> tuple[int, ...]:
    """``e`` with its largest entries lowered until its degree is below ``degree``."""
    e = list(e)
    while sum(e) >= degree:
        e[e.index(max(e))] -= 1
    return tuple(e)


def forward_scan(exps, e) -> bool:
    """Whether some tuple of ``exps`` divides ``e``, testing every tuple."""
    return any(all(g <= x for g, x in zip(f, e)) for f in exps)


@st.composite
def window_probes(draw, f: tuple[int, ...], degree: int) -> list[tuple[int, ...]]:
    """Probes of degree ``degree`` at the edges of ``f``'s first-exponent window.

    A divisor f of a probe e has e_1 - (deg e - deg f) <= f_1 <= e_1.  The
    probes put f_1 on each edge, and one step outside each where the
    ambient dimension allows it (then f does not divide e).
    """
    n, gap = len(f), degree - sum(f)
    probes = [(f[0] + gap,) + f[1:]]  # f_1 = e_1 - (D - delta)
    if n > 1:
        rest = draw(tuples_of_degree(n - 1, gap))
        probes.append((f[0],) + tuple(map(add, f[1:], rest)))  # f_1 = e_1
        if f[0]:
            rest = draw(tuples_of_degree(n - 1, gap + 1))
            probes.append((f[0] - 1,) + tuple(map(add, f[1:], rest)))  # f_1 = e_1 + 1
        j = draw(st.sampled_from([i for i in range(1, n) if f[i]] or [None]))
        if j is not None:
            e = [f[0] + gap + 1, *f[1:]]  # f_1 = e_1 - (D - delta) - 1
            e[j] -= 1
            probes.append(tuple(e))
    elif f[0]:
        probes.append((f[0] - 1,))
    return probes


def counting_walks():
    """Patch the key the block walk bisects by, to count its calls."""
    return patch.object(monomials_module, "_minus_first", wraps=monomials_module._minus_first)


def scan_path(exps, e, strict=False) -> tuple[bool, str]:
    """``_has_divisor(exps, e, strict)`` and the path it took.

    "short" scans a list of fewer than ``_DENSE`` tuples with no bisection,
    "sparse" bisects to the top degree (that of ``e``, one less when
    strict) and scans, and "walk" bisects the degree blocks by first
    exponent.
    """
    with patch.object(monomials_module, "bisect_right", wraps=bisect_right) as cut:
        with counting_walks() as key:
            found = _has_divisor(exps, e, strict)
    return found, "walk" if key.called else "sparse" if cut.called else "short"


def documented_path(exps, e, strict=False) -> str:
    """The path ``_has_divisor`` takes by its density rule, counted by hand."""
    if len(exps) < _DENSE:
        return "short"
    top = sum(e) - strict
    below = sum(1 for f in exps if sum(f) <= top)
    return "walk" if below and below >= _DENSE * (top - sum(exps[0]) + 1) else "sparse"


class TestDivisorScan:
    """``_has_divisor`` against a scan of every tuple, on each of its paths."""

    @given(st.data(), st.integers(1, 4), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_a_forward_scan_of_every_tuple(self, data, n, equal_degree):
        if equal_degree:
            degree = data.draw(st.integers(0, 6))
            drawn = data.draw(st.lists(tuples_of_degree(n, degree), max_size=8))
        else:
            drawn = data.draw(st.lists(exponent_tuples(n, 5), max_size=8))
        # Any grlex-ordered sequence will do; it need not be an antichain.
        exps = tuple(_grlex(drawn))
        probe = data.draw(exponent_tuples(n, 6))
        probes = [probe, (0,) * n]
        if exps:
            lowest = sum(exps[0])
            if lowest:
                probes.append(below_degree(probe, lowest))  # below every tuple
            probes.append(data.draw(st.sampled_from(exps)))
        for e in probes:
            assert scan_path(exps, e) == (forward_scan(exps, e), "short")
            # A strict query is asked only of a tuple outside the list; a
            # short list is scanned whole either way.
            if e not in exps:
                assert scan_path(exps, e, True) == (forward_scan(exps, e), "short")

    @given(st.data(), st.integers(2, 4), st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_block_walk_matches_a_forward_scan(self, data, n, blocks):
        # Consecutive degrees holding _DENSE or more tuples each (40 to 200
        # in all), so every probe of a degree in their range is walked.
        low = next(g for g in range(100) if math.comb(g + n - 1, n - 1) >= 2 * _DENSE)
        low += data.draw(st.integers(0, 3))
        drawn = []
        for degree in range(low, low + blocks):
            every = [t for t in itertools.product(range(degree + 1), repeat=n) if sum(t) == degree]
            shuffled = data.draw(st.permutations(every))
            drawn += shuffled[: data.draw(st.integers(_DENSE, min(len(every), 40)))]
        exps = tuple(_grlex(drawn))
        high = low + blocks - 1
        f = data.draw(st.sampled_from(exps))
        probes = data.draw(window_probes(f, data.draw(st.integers(sum(f), high))))
        probes.append(data.draw(tuples_of_degree(n, data.draw(st.integers(low, high)))))
        for e in probes:
            assert scan_path(exps, e) == (forward_scan(exps, e), "walk")
            if e not in exps:
                path = documented_path(exps, e, True)
                assert scan_path(exps, e, True) == (forward_scan(exps, e), path)

    @given(st.data(), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_strict_queries_skip_their_own_degree(self, data, n):
        # One dense degree: an inclusive query of a tuple of that degree
        # walks its block, a strict one bisects below it and finds nothing
        # to walk.  A tuple one degree up is walked either way.
        low = next(g for g in range(100) if math.comb(g + n - 1, n - 1) >= 2 * _DENSE)
        every = [t for t in itertools.product(range(low + 1), repeat=n) if sum(t) == low]
        shuffled = data.draw(st.permutations(every))
        exps = tuple(_grlex(shuffled[: data.draw(st.integers(_DENSE, len(every) - 1))]))
        outside = data.draw(st.sampled_from([t for t in every if t not in exps]))
        assert scan_path(exps, outside) == (False, "walk")
        assert scan_path(exps, outside, True) == (False, "sparse")
        assert documented_path(exps, outside, True) == "sparse"
        above = data.draw(tuples_of_degree(n, low + 1))
        assert scan_path(exps, above, True) == (forward_scan(exps, above), "walk")
        assert documented_path(exps, above, True) == "walk"

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_degree_sparse_lists_take_the_plain_scan(self, data, n):
        # One to three tuples per degree over a long run of degrees.
        drawn = []
        for degree in range(data.draw(st.integers(0, 5)), 70, data.draw(st.integers(1, 3))):
            drawn += data.draw(st.lists(tuples_of_degree(n, degree), min_size=1, max_size=3))
        exps = tuple(_grlex(drawn))
        f = data.draw(st.sampled_from(exps))
        probes = data.draw(window_probes(f, sum(f) + data.draw(st.integers(0, 6))))
        probes.append(data.draw(exponent_tuples(n, 30)))
        assert len(exps) >= _DENSE
        for e in probes:
            assert scan_path(exps, e) == (forward_scan(exps, e), "sparse")

    def test_probe_below_every_generator(self):
        exps = MonomialIdeal(3, (M(1, 1, 0), M(0, 0, 2))).exponents
        assert scan_path(exps, (0, 0, 0)) == (False, "short")
        assert scan_path(exps, (1, 0, 0)) == (False, "short")
        assert scan_path((), (0, 0, 0)) == (False, "short")
        assert scan_path(MonomialIdeal.unit(3).exponents, (0, 0, 0)) == (True, "short")
        # A long list with every tuple above the probe's degree has nothing
        # to walk: it is bisected to the probe's degree and found empty.
        exps = weighted_ideal_gens(Weight((1, 1, 1)), 6).exponents
        assert scan_path(exps, (1, 2, 2)) == (False, "sparse")

    @given(st.data(), st.integers(0, 30), st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_threshold_membership_near_the_threshold(self, data, d, zeros):
        positive = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
        if math.gcd(*positive) != 1:
            positive[0] = 1
        w = Weight(tuple(positive) + (0,) * zeros)
        # Aim at a weight in d - 3 .. d + 3: the first positive coordinates
        # at random, the last rounded down or up towards the target.
        target = max(0, d + data.draw(st.integers(-3, 3)))
        s = [data.draw(st.integers(0, target // a)) for a in positive[:-1]]
        rest = max(0, target - sum(a * x for a, x in zip(positive, s)))
        last = rest // positive[-1] + data.draw(st.integers(0, 1))
        tail = data.draw(st.lists(st.integers(0, 4), min_size=zeros, max_size=zeros))
        m = Monomial(tuple(s) + (last,) + tuple(tail))
        ideal = weighted_ideal_gens(w, d)
        assert contains_monomial(ideal, m) == (monomial_weight(w, m) >= d)
        path = documented_path(ideal.exponents, m.exponents)
        assert scan_path(ideal.exponents, m.exponents) == (monomial_weight(w, m) >= d, path)


def grlex_sorted(exps) -> list[tuple[int, ...]]:
    return sorted(exps, key=lambda e: grlex_key(Monomial(e)))


class TestGrlexAntichain:
    """``_grlex_antichain``, on the divisor query, against a pairwise scan."""

    @given(st.data(), st.integers(1, 4), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_oracle(self, data, n, equal_degree):
        if equal_degree:
            degree = data.draw(st.integers(0, 6))
            exps = data.draw(st.sets(tuples_of_degree(n, degree), max_size=40))
        else:
            exps = data.draw(st.sets(exponent_tuples(n, 5), max_size=40))
        assert list(_grlex_antichain(exps)) == grlex_sorted(brute_antichain(exps))

    @given(st.data(), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_products_reach_the_block_walk(self, data, n):
        # Every tuple of one degree (2 * _DENSE or more of them) and a few
        # of the next, times a few squarefree tuples: the products of least
        # degree are all kept, so membership in the ideal they generate is
        # walked, for every product and for a probe drawn apart.
        low = next(g for g in range(100) if math.comb(g + n - 1, n - 1) >= 2 * _DENSE)
        left = [t for t in itertools.product(range(low + 1), repeat=n) if sum(t) == low]
        left += data.draw(st.lists(tuples_of_degree(n, low + 1), max_size=10))
        right = data.draw(st.sets(exponent_tuples(n, 1), min_size=1, max_size=4))
        products = {tuple(map(add, g, h)) for g in left for h in right}
        kept = list(_grlex_antichain(products))
        assert kept == grlex_sorted(brute_antichain(products))
        least = sum(kept[0])
        assert sum(1 for e in kept if sum(e) == least) >= 2 * _DENSE
        probe = data.draw(tuples_of_degree(n, least + data.draw(st.integers(0, 2))))
        with counting_walks() as key:
            assert all(_has_divisor(kept, e) for e in products)
            assert _has_divisor(kept, probe) == forward_scan(kept, probe)
        assert key.called

    @given(st.data(), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_strict_scan_on_equal_degree_sets(self, data, n):
        # 2 * _DENSE or more tuples of one degree are all kept, and not one
        # of them walks a block: the strict query stops below their degree.
        # Tuples a degree or two above them are walked.
        low = next(g for g in range(100) if math.comb(g + n - 1, n - 1) >= 2 * _DENSE)
        every = [t for t in itertools.product(range(low + 1), repeat=n) if sum(t) == low]
        shuffled = data.draw(st.permutations(every))
        drawn = set(shuffled[: data.draw(st.integers(2 * _DENSE, len(every)))])
        with counting_walks() as key:
            assert list(_grlex_antichain(drawn)) == grlex_sorted(brute_antichain(drawn))
        assert not key.called
        higher = st.one_of(tuples_of_degree(n, low + 1), tuples_of_degree(n, low + 2))
        exps = drawn | set(data.draw(st.lists(higher, min_size=1, max_size=10)))
        with counting_walks() as key:
            assert list(_grlex_antichain(exps)) == grlex_sorted(brute_antichain(exps))
        assert key.called


class TestColonAndSaturate:
    def test_colon_example(self):
        ideal = I(M(1, 0, 1), M(0, 1, 2))
        assert colon(ideal, M(0, 0, 1)).generators == (M(1, 0, 0), M(0, 1, 1))

    def test_colon_by_one_is_identity(self):
        ideal = I(M(1, 0, 1), M(0, 1, 2))
        assert colon(ideal, Monomial.one(3)) == ideal

    def test_saturate_example(self):
        ideal = I(M(2, 0, 1), M(1, 0, 2))
        assert saturate(ideal, M(0, 0, 1)).generators == (M(1, 0, 0),)

    def test_saturate_by_absent_variable(self):
        ideal = I(M(2, 0, 0), M(1, 1, 0))
        assert saturate(ideal, M(0, 0, 1)) == ideal

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=150)
    def test_colon_adjunction(self, data, n):
        ideal = data.draw(ideals(n=n, max_gens=4, max_exp=4))
        m = data.draw(monomials(n=n, max_exp=3))
        h = data.draw(monomials(n=n, max_exp=3))
        assert contains_monomial(colon(ideal, m), h) == contains_monomial(ideal, h * m)

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=200)
    def test_saturate_matches_iterated_colon(self, data, n):
        ideal = data.draw(
            st.one_of(
                st.just(MonomialIdeal.zero(n)),
                st.just(MonomialIdeal.unit(n)),
                ideals(n=n, max_gens=5, max_exp=5),
            )
        )
        m = data.draw(st.one_of(st.just(Monomial.one(n)), monomials(n=n, max_exp=3)))
        assert saturate(ideal, m) == brute_saturate(ideal, m)

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=80)
    def test_saturation_is_stable(self, data, n):
        ideal = data.draw(ideals(n=n, max_gens=4, max_exp=4))
        m = data.draw(monomials(n=n, max_exp=2))
        sat = saturate(ideal, m)
        assert colon(sat, m) == sat


class TestRadical:
    def test_square_roots_of_generators(self):
        assert radical(I(M(3, 0), M(0, 2))).generators == (M(1, 0), M(0, 1))

    def test_edge_ideals(self):
        assert radical(MonomialIdeal.zero(2)).is_zero()
        assert radical(MonomialIdeal.unit(2)).is_unit()

    @given(ideals(max_dim=4, max_gens=4, max_exp=4))
    @settings(max_examples=100)
    def test_idempotent(self, ideal):
        rad = radical(ideal)
        assert radical(rad) == rad

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=150)
    def test_membership_iff_some_power_in_ideal(self, data, n):
        ideal = data.draw(ideals(n=n, max_gens=4, max_exp=4, allow_zero=False))
        g = data.draw(monomials(n=n, max_exp=6))
        max_power = 1 + max(max(gen.exponents) for gen in ideal.generators)
        expected = brute_has_power_in(ideal, g, max_power)
        assert contains_monomial(radical(ideal), g) == expected


class TestKernelOutputIsCanonical:
    @given(st.data(), st.integers(1, 3), st.integers(0, 3), st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_constructor_keeps_kernel_output(self, data, n, t, d):
        # These results skip the constructor, so they must already be in
        # its canonical form.
        left = data.draw(ideals(n=n, max_gens=4, max_exp=3))
        right = data.draw(ideals(n=n, max_gens=4, max_exp=3))
        m = data.draw(monomials(n=n, max_exp=3))
        w = data.draw(weights(max_dim=4, max_entry=6))
        results = [
            ideal_product(left, right),
            ideal_power(left, t),
            colon(left, m),
            saturate(left, m),
            radical(left),
            weighted_ideal_gens(w, d),
        ]
        for result in results:
            assert MonomialIdeal(result.ambient_dim, result.generators) == result


class TestStorage:
    """An ideal keeps its minimal generators as plain int tuples in grlex order."""

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=100)
    def test_exponents_are_plain_tuples_in_grlex_order(self, data, n):
        ideal = data.draw(ideals(n=n, max_gens=6))
        exps = ideal.exponents
        assert type(exps) is tuple
        assert all(type(e) is tuple and len(e) == n for e in exps)
        assert all(type(x) is int for e in exps for x in e)
        keys = [grlex_key(Monomial(e)) for e in exps]
        assert keys == sorted(set(keys))
        assert ideal.generators == tuple(map(Monomial, exps))

    def test_value_semantics(self):
        ideal = MonomialIdeal(2, (M(0, 2), M(2, 3), M(1, 1), M(0, 2)))
        assert ideal.exponents == ((1, 1), (0, 2))
        assert ideal.generators == (M(1, 1), M(0, 2))
        assert [f.name for f in fields(MonomialIdeal)] == ["ambient_dim", "exponents"]
        assert repr(ideal) == "MonomialIdeal(ambient_dim=2, exponents=((1, 1), (0, 2)))"
        same = MonomialIdeal(2, generators=[M(1, 1), M(0, 2)])
        assert ideal == same and hash(ideal) == hash(same)
        assert ideal != MonomialIdeal(2, (M(1, 1),))
        assert pickle.loads(pickle.dumps(ideal)) == ideal
        with pytest.raises(FrozenInstanceError):
            ideal.exponents = ()

    @pytest.mark.skipif(
        sys.implementation.name != "cpython", reason="untracking int tuples is CPython's GC"
    )
    def test_threshold_generators_leave_the_cyclic_gc(self):
        # The cached generators of a threshold ideal cost the collector
        # nothing once it has seen them, which Monomial objects would.
        ideal = weighted_ideal_gens(Weight((1, 2, 3)), 40)
        assert len(ideal.exponents) > 100
        gc.collect()
        assert not any(map(gc.is_tracked, ideal.exponents))


class TestTrustedPath:
    """Kernel results skip the constructor's scan and store what it would store."""

    @staticmethod
    def assert_built_as_public(ideal, exps):
        # ``exps`` generates the ideal; the public constructor minimalizes it.
        for e in ideal.exponents:
            assert type(e) is tuple and len(e) == ideal.ambient_dim
            assert all(type(x) is int and x >= 0 for x in e)
        assert ideal == MonomialIdeal(ideal.ambient_dim, tuple(map(Monomial, exps)))

    @given(st.data(), st.integers(0, 2), st.integers(0, 25), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_results_match_public_constructors(self, data, tail, d, e):
        w = data.draw(weights(max_dim=4, max_entry=6))
        w = Weight(w.entries + (0,) * tail)
        n = w.n
        ideal = weighted_ideal_gens(w, d)
        # The public constructor's antichain scan is quadratic in the generators.
        assume(len(ideal.exponents) <= 120)
        other = weighted_ideal_gens(w, e)
        m = data.draw(monomials(n=n, max_exp=3)).exponents
        gens = ideal.exponents
        self.assert_built_as_public(ideal, _minimal_generator_exponents(w.entries, d))
        self.assert_built_as_public(
            ideal_product(ideal, other),
            [tuple(map(sum, zip(g, h))) for g in gens for h in other.exponents],
        )
        self.assert_built_as_public(
            colon(ideal, Monomial(m)),
            [tuple(max(a - b, 0) for a, b in zip(g, m)) for g in gens],
        )
        self.assert_built_as_public(
            saturate(ideal, Monomial(m)),
            [tuple(0 if b else a for a, b in zip(g, m)) for g in gens],
        )
        self.assert_built_as_public(radical(ideal), [tuple(min(a, 1) for a in g) for g in gens])


class TestIdealsEqual:
    def test_mutual_membership(self):
        assert ideals_equal(I(M(1, 0), M(0, 1)), I(M(0, 1), M(1, 0)))
        assert not ideals_equal(I(M(1, 0)), I(M(0, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ideals_equal(I(M(1, 0)), I(M(1, 0, 0)))


class TestEqualityVerdict:
    def test_the_verdict_is_its_witness(self):
        equal = EqualityVerdict()
        assert (equal.equal, equal.verdict, equal.witness) == (True, "EQUAL", None)
        g = M(2, 1)
        missed = EqualityVerdict(g)
        assert (missed.equal, missed.verdict, missed.witness) == (False, "NOT_EQUAL", g)
        assert [f.name for f in fields(EqualityVerdict)] == ["witness"]
        assert missed == EqualityVerdict(witness=M(2, 1)) != equal
        assert hash(missed) == hash(EqualityVerdict(M(2, 1)))
