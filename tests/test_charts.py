"""Blow-up chart atlases, cyclic quotient terminality, pushforward membership."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import monomials, polynomials, weights
from wblowup.charts import (
    BlowupAtlas,
    ChartDescription,
    CyclicQuotientType,
    cartier_index,
    charts,
    discrepancy,
    is_terminal,
    is_terminal_blowup,
    pushforward_membership,
    reid_tai_ages,
    substitute_through_chart,
)
from wblowup.errors import (
    IllFormedActionError,
    InvalidArgumentError,
    ZeroPolynomialError,
)
from wblowup.monomials import Monomial, Polynomial
from wblowup.weights import Weight, monomial_weight, sigma_wt, weighted_ideal_gens


def M(*exps: int) -> Monomial:
    return Monomial(tuple(exps))


class TestCyclicQuotientType:
    def test_twists_reduced_mod_order(self):
        q = CyclicQuotientType(5, (7, -1, 10))
        assert q.twists == (2, 4, 0)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            CyclicQuotientType(0, (1,))
        with pytest.raises(InvalidArgumentError):
            CyclicQuotientType(3, ())


class TestCharts:
    def test_atlas_of_three_coprime_entries(self):
        atlas = charts(Weight((10, 14, 35)))
        assert atlas.cartier_index == 70
        q1, q2, q3 = (c.quotient for c in atlas.charts)
        assert (q1.order, q1.twists) == (10, (1, 6, 5))
        assert (q2.order, q2.twists) == (14, (4, 1, 7))
        assert (q3.order, q3.twists) == (35, (25, 21, 1))
        maps = [c.chart_map for c in atlas.charts]
        assert maps[0] == (M(10, 0, 0), M(14, 1, 0), M(35, 0, 1))
        assert maps[1] == (M(1, 10, 0), M(0, 14, 0), M(0, 35, 1))
        assert maps[2] == (M(1, 0, 10), M(0, 1, 14), M(0, 0, 35))

    def test_unweighted_coordinates_pass_through(self):
        atlas = charts(Weight((1, 1, 3, 0)))
        assert len(atlas.charts) == 3
        chart3 = atlas.charts[2]
        assert chart3.quotient.twists == (2, 2, 1, 0)
        assert chart3.chart_map == (
            M(1, 0, 1, 0),
            M(0, 1, 1, 0),
            M(0, 0, 3, 0),
            M(0, 0, 0, 1),
        )

    def test_smooth_blowup_charts_are_trivial_quotients(self):
        atlas = charts(Weight((1, 1)))
        assert all(c.quotient.order == 1 for c in atlas.charts)
        assert atlas.cartier_index == 1

    def test_atlas_invariants_enforced(self):
        atlas = charts(Weight((2, 3)))
        with pytest.raises(InvalidArgumentError):
            BlowupAtlas(atlas.weight, atlas.charts, 5)
        with pytest.raises(InvalidArgumentError):
            BlowupAtlas(atlas.weight, atlas.charts[:1], atlas.cartier_index)
        reversed_charts = tuple(reversed(atlas.charts))
        with pytest.raises(InvalidArgumentError):
            BlowupAtlas(atlas.weight, reversed_charts, atlas.cartier_index)
        wrong_order = ChartDescription(
            1,
            CyclicQuotientType(7, atlas.charts[0].quotient.twists),
            atlas.charts[0].chart_map,
            1,
        )
        with pytest.raises(InvalidArgumentError):
            BlowupAtlas(atlas.weight, (wrong_order, atlas.charts[1]), atlas.cartier_index)


class TestCartierIndex:
    def test_examples(self):
        assert cartier_index(Weight((10, 14, 35))) == 70
        assert cartier_index(Weight((1, 1, 2, 0))) == 2
        assert cartier_index(Weight((1, 1))) == 1
        assert cartier_index(Weight((6, 10, 15))) == 30


class TestReidTai:
    def test_ages_of_small_quotient(self):
        ages = reid_tai_ages(CyclicQuotientType(3, (2, 2, 1)))
        assert ages == (Fraction(5, 3), Fraction(4, 3))

    def test_trivial_group_has_no_ages(self):
        with pytest.raises(InvalidArgumentError):
            reid_tai_ages(CyclicQuotientType(1, (0, 0)))

    def test_terminal_examples(self):
        assert is_terminal(CyclicQuotientType(3, (2, 2, 1)))
        assert is_terminal(CyclicQuotientType(1, (0, 0, 0)))
        assert not is_terminal(CyclicQuotientType(2, (1, 1)))
        assert not is_terminal(CyclicQuotientType(2, (1, 1, 0)))
        assert is_terminal(CyclicQuotientType(2, (1, 1, 1)))

    def test_family_of_terminal_quotients(self):
        # 1/b(b-1, b-1, 1) with zero padding stays terminal for every b.
        for b in range(2, 11):
            for pad in range(0, 6):
                q = CyclicQuotientType(b, (b - 1, b - 1, 1) + (0,) * pad)
                assert is_terminal(q), (b, pad)

    def test_unfaithful_action_rejected(self):
        with pytest.raises(IllFormedActionError) as exc:
            is_terminal(CyclicQuotientType(4, (2, 2)))
        assert exc.value.code == "ILL_FORMED_ACTION"

    @pytest.mark.parametrize(
        "order, twists, coordinate",
        [(3, (1, 0, 0), "x1"), (4, (1, 2, 2), "x1"), (4, (2, 1, 2), "x2")],
    )
    def test_pseudo_reflection_rejected(self, order, twists, coordinate):
        # Off some coordinate the twists share a factor with the order, so a
        # nontrivial element fixes a hyperplane.  1/3(1,0,0) is smooth and
        # 1/4(1,2,2) is 1/2(1,1,1): neither answer would be "not terminal".
        with pytest.raises(IllFormedActionError) as exc:
            is_terminal(CyclicQuotientType(order, twists))
        assert exc.value.code == "ILL_FORMED_ACTION"
        assert f"coordinate {coordinate}" in str(exc.value)

    def test_integer_verdict_matches_ages(self):
        for r in range(2, 13):
            for twists in itertools.product(range(r), repeat=3):
                q = CyclicQuotientType(r, twists)
                try:
                    verdict = is_terminal(q)
                except IllFormedActionError:
                    continue
                assert verdict == all(age > 1 for age in reid_tai_ages(q)), (r, twists)

    def test_age_boundary_is_not_terminal(self):
        # Ages equal to 1 must fail the strict inequality.
        q = CyclicQuotientType(2, (1, 1))
        assert reid_tai_ages(q) == (Fraction(1),)
        assert not is_terminal(q)


class TestIsTerminalBlowup:
    def test_examples(self):
        assert is_terminal_blowup(Weight((1, 1, 2)))
        assert is_terminal_blowup(Weight((1, 1)))
        assert not is_terminal_blowup(Weight((2, 3)))
        assert not is_terminal_blowup(Weight((10, 14, 35)))

    def test_family_weights_are_terminal(self):
        for b, r, pad in itertools.product(range(1, 7), range(0, 4), range(0, 3)):
            w = Weight((1, 1) + (b,) * r + (0,) * pad)
            assert is_terminal_blowup(w), (b, r, pad)


class TestSubstitution:
    def test_exceptional_exponent_is_weighted_degree(self):
        w = Weight((10, 14, 35))
        atlas = charts(w)
        m = M(5, 4, 1)
        for chart in atlas.charts:
            image = substitute_through_chart(chart, m)
            assert image.exponents[chart.exceptional_var - 1] == 141

    def test_dimension_mismatch(self):
        chart = charts(Weight((1, 1))).charts[0]
        with pytest.raises(InvalidArgumentError):
            substitute_through_chart(chart, M(1, 0, 0))

    @given(st.data())
    @settings(max_examples=120)
    def test_exceptional_exponent_matches_weight(self, data):
        w = data.draw(weights())
        m = data.draw(monomials(n=w.n, max_exp=5))
        expected = monomial_weight(w, m)
        for chart in charts(w).charts:
            image = substitute_through_chart(chart, m)
            assert image.exponents[chart.exceptional_var - 1] == expected

    @given(st.data())
    @settings(max_examples=80)
    def test_multiplicative(self, data):
        w = data.draw(weights())
        m1 = data.draw(monomials(n=w.n, max_exp=4))
        m2 = data.draw(monomials(n=w.n, max_exp=4))
        for chart in charts(w).charts:
            assert substitute_through_chart(chart, m1 * m2) == substitute_through_chart(
                chart, m1
            ) * substitute_through_chart(chart, m2)


class TestPushforwardMembership:
    def test_vanishing_order_thresholds(self):
        w = Weight((10, 14, 35))
        f = Polynomial.from_monomial(M(5, 4, 1))
        assert pushforward_membership(w, 140, f)
        assert pushforward_membership(w, 141, f)
        assert not pushforward_membership(w, 142, f)

    def test_order_zero_always_holds(self):
        w = Weight((1, 1, 2))
        f = Polynomial.from_terms([(M(0, 0, 0), 1)], 3)
        assert pushforward_membership(w, 0, f)
        assert not pushforward_membership(w, 1, f)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            pushforward_membership(Weight((1, 1)), 2, Polynomial.zero(2))

    def test_argument_validation(self):
        w = Weight((1, 1))
        f = Polynomial.from_monomial(M(1, 0))
        with pytest.raises(InvalidArgumentError):
            pushforward_membership(w, -1, f)
        with pytest.raises(InvalidArgumentError):
            pushforward_membership(w, 1, Polynomial.from_monomial(M(1, 0, 0)))

    @given(st.data(), st.integers(0, 20))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_weight_threshold(self, data, d):
        w = data.draw(weights())
        f = data.draw(polynomials(n=w.n))
        assert pushforward_membership(w, d, f) == (sigma_wt(w, f) >= d)

    @given(st.data(), st.integers(0, 15))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_generator_divisibility(self, data, d):
        w = data.draw(weights(max_dim=4, max_entry=8))
        f = data.draw(polynomials(n=w.n))
        ideal = weighted_ideal_gens(w, d)
        from wblowup.monomials import contains

        assert pushforward_membership(w, d, f) == contains(ideal, f)


class TestDiscrepancy:
    def test_examples(self):
        assert discrepancy(Weight((10, 14, 35))) == 58
        assert discrepancy(Weight((1, 1, 2, 0))) == 3
        assert discrepancy(Weight((1, 1))) == 1
        assert discrepancy(Weight((1,))) == 0
