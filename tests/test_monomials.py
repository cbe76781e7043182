"""Monomial, polynomial and ideal arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_has_power_in, brute_saturate
from strategies import ideals, monomials, weights
from wblowup.charts import pushforward_membership
from wblowup.errors import DimensionMismatchError, InvalidArgumentError, ZeroPolynomialError
from wblowup.monomials import (
    Monomial,
    MonomialIdeal,
    Polynomial,
    colon,
    contains,
    contains_monomial,
    divides,
    ideal_power,
    ideal_product,
    ideals_equal,
    minimalize,
    radical,
    saturate,
)
from wblowup.weights import Weight, sigma_wt, weighted_ideal_gens


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

    def test_variable_and_one(self):
        assert Monomial.variable(2, 3) == M(0, 1, 0)
        assert Monomial.one(2).is_one()
        with pytest.raises(ValueError):
            Monomial.variable(0, 3)
        with pytest.raises(ValueError):
            Monomial.variable(4, 3)

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

    def test_cancellation_gives_zero(self):
        f = Polynomial.from_terms([(M(1, 0), 1), (M(1, 0), -1)], 2)
        assert f.is_zero()
        assert f == Polynomial.zero(2)

    def test_product(self):
        f = Polynomial.from_terms([(M(1, 0), 1), (M(0, 1), -1)], 2)
        g = Polynomial.from_terms([(M(1, 0), 1), (M(0, 1), 1)], 2)
        assert f * g == Polynomial.from_terms([(M(2, 0), 1), (M(0, 2), -1)], 2)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(2, ((M(1, 0), Fraction(0)),))

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
        assert Polynomial(n, tuple(terms)) == Polynomial.from_terms(terms, n)


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

    def test_unit_absorbs(self):
        assert minimalize([M(0, 0), M(2, 1)]) == MonomialIdeal.unit(2)

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


class TestIdealsEqual:
    def test_mutual_membership(self):
        assert ideals_equal(I(M(1, 0), M(0, 1)), I(M(0, 1), M(1, 0)))
        assert not ideals_equal(I(M(1, 0)), I(M(0, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ideals_equal(I(M(1, 0)), I(M(1, 0, 0)))
