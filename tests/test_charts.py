"""Blow-up charts, cyclic quotient terminality, pushforward membership."""

from __future__ import annotations

import dataclasses
import itertools
import math
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_ill_formed_coordinate,
    brute_pushforward_membership,
    substitute_through_chart,
)
from strategies import monomials, polynomials, weights
from wblowup.charts import (
    CyclicQuotientType,
    _age_texts,
    _chart_quotients,
    _terminal_ages,
    cartier_index,
    charts,
    discrepancy,
    is_terminal,
    is_terminal_blowup,
    pushforward_membership,
    reid_tai_ages,
)
from wblowup.errors import (
    DimensionMismatchError,
    IllFormedActionError,
    InvalidArgumentError,
    ZeroPolynomialError,
)
from wblowup.monomials import Monomial, Polynomial
from wblowup.weights import Weight, monomial_weight, weighted_ideal_gens


def M(*exps: int) -> Monomial:
    return Monomial(tuple(exps))


def well_formed(r: int, twists: tuple[int, ...]) -> bool:
    """Is r prime to the twists off each coordinate?  Stated apart from the library."""
    return brute_ill_formed_coordinate(r, twists) is None


class TestCyclicQuotientType:
    def test_twists_reduced_mod_order(self):
        q = CyclicQuotientType(5, (7, -1, 10))
        assert q.twists == (2, 4, 0)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            CyclicQuotientType(0, (1,))
        with pytest.raises(InvalidArgumentError):
            CyclicQuotientType(3, ())

    @pytest.mark.parametrize(
        "order, twists",
        [
            (5, (2.5, Fraction(7, 2), 1)),
            (5, ("2", "3", "1")),
            (5.0, (2, 3, 1)),
            (Fraction(5), (2, 3, 1)),
            ("5", (2, 3, 1)),
            (5, "231"),
        ],
    )
    def test_non_integers_are_refused_not_rounded(self, order, twists):
        with pytest.raises(InvalidArgumentError, match="must be integers") as exc:
            CyclicQuotientType(order, twists)
        assert exc.value.code == "INVALID_ARGUMENT"

    def test_integer_likes_are_stored_as_ints(self):
        q = CyclicQuotientType(True, [False, 3])
        assert (q.order, q.twists) == (1, (0, 0))
        assert type(q.order) is int and all(type(b) is int for b in q.twists)

    @pytest.mark.parametrize(
        "order, twists, error, message",
        [
            (0, (), InvalidArgumentError, "group order must be positive, got 0"),
            (
                4.0,
                (2, 2),
                InvalidArgumentError,
                "group order and twists must be integers, got 4.0 and (2, 2)",
            ),
            (4, (), InvalidArgumentError, "a quotient needs at least one coordinate"),
            (
                4,
                (2, 2),
                IllFormedActionError,
                "order 4 shares a factor with the twists off coordinate x1, twists (2, 2)",
            ),
        ],
    )
    def test_refusal_order(self, order, twists, error, message):
        # Integers first, then a positive order, then a coordinate, and the
        # well-formedness check last.
        with pytest.raises(error) as exc:
            CyclicQuotientType(order, twists)
        assert str(exc.value) == message

    def test_dataclass_behaviour(self):
        q = CyclicQuotientType(order=5, twists=[7, -1, 10])
        same = CyclicQuotientType(5, (2, 4, 0))
        assert q == same and hash(q) == hash(same)
        assert repr(q) == "CyclicQuotientType(order=5, twists=(2, 4, 0))"
        assert [f.name for f in dataclasses.fields(CyclicQuotientType)] == ["order", "twists"]
        assert dataclasses.replace(q, twists=[1, -1, 1]) == CyclicQuotientType(5, (1, 4, 1))
        assert pickle.loads(pickle.dumps(q)) == q
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.twists = (2, 2, 0)

    def test_replace_cannot_build_an_ill_formed_action(self):
        q = CyclicQuotientType(4, (1, 3, 1))
        with pytest.raises(IllFormedActionError) as exc:
            dataclasses.replace(q, twists=(1, 2, 2))
        assert exc.value.code == "ILL_FORMED_ACTION"
        assert str(exc.value) == (
            "order 4 shares a factor with the twists off coordinate x1, twists (1, 2, 2)"
        )
        # 1/5(1, 2, 2) at order 2 is 1/2(1, 0, 0), a reflection.
        with pytest.raises(IllFormedActionError, match="coordinate x1, twists \\(1, 0, 0\\)$"):
            dataclasses.replace(CyclicQuotientType(5, (1, 2, 2)), order=2)


class TestCharts:
    def test_atlas_of_three_coprime_entries(self):
        w = Weight((10, 14, 35))
        assert cartier_index(w) == 70
        q1, q2, q3 = (c.quotient for c in charts(w))
        assert (q1.order, q1.twists) == (10, (1, 6, 5))
        assert (q2.order, q2.twists) == (14, (4, 1, 7))
        assert (q3.order, q3.twists) == (35, (25, 21, 1))
        maps = [c.chart_map for c in charts(w)]
        assert maps[0] == (M(10, 0, 0), M(14, 1, 0), M(35, 0, 1))
        assert maps[1] == (M(1, 10, 0), M(0, 14, 0), M(0, 35, 1))
        assert maps[2] == (M(1, 0, 10), M(0, 1, 14), M(0, 0, 35))

    def test_unweighted_coordinates_pass_through(self):
        cs = charts(Weight((1, 1, 3, 0)))
        assert len(cs) == 3
        chart3 = cs[2]
        assert chart3.quotient.twists == (2, 2, 1, 0)
        assert chart3.chart_map == (
            M(1, 0, 1, 0),
            M(0, 1, 1, 0),
            M(0, 0, 3, 0),
            M(0, 0, 0, 1),
        )

    def test_smooth_blowup_charts_are_trivial_quotients(self):
        w = Weight((1, 1))
        assert all(c.quotient.order == 1 for c in charts(w))
        assert cartier_index(w) == 1

    def test_atlas_invariants_enforced(self):
        # The relations the deleted atlas class checked on construction now
        # hold by construction of `charts(w)`: one chart per positive entry,
        # in coordinate order, each quotient of order a_i.
        w = Weight((2, 3))
        cs = charts(w)
        assert len(cs) == w.k == 2
        assert [c.index for c in cs] == [1, 2]
        assert [c.quotient.order for c in cs] == [2, 3]


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
        with pytest.raises(InvalidArgumentError, match="^group order must be at least 2, got 1$"):
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
            CyclicQuotientType(4, (2, 2))
        assert exc.value.code == "ILL_FORMED_ACTION"

    @pytest.mark.parametrize(
        "order, twists, coordinate",
        [(3, (1, 0, 0), "x1"), (4, (1, 2, 2), "x1"), (4, (2, 1, 2), "x2")],
    )
    def test_pseudo_reflection_rejected(self, order, twists, coordinate):
        # Off some coordinate the twists share a factor with the order, so a
        # nontrivial element fixes a hyperplane.  1/3(1,0,0) is smooth and
        # 1/4(1,2,2) is 1/2(1,1,1): neither answer would be "not terminal",
        # and the ages would not be those of the quotient.  So no such
        # quotient is built, and no verdict or age can be asked of one.
        with pytest.raises(IllFormedActionError) as exc:
            CyclicQuotientType(order, twists)
        assert exc.value.code == "ILL_FORMED_ACTION"
        assert f"coordinate {coordinate}" in str(exc.value)

    @given(
        st.integers(1, 30).flatmap(
            lambda r: st.tuples(st.just(r), st.lists(st.integers(0, 2 * r), min_size=1, max_size=6))
        )
    )
    @settings(max_examples=400)
    def test_well_formedness_names_the_first_coordinate_of_the_full_gcds(self, action):
        # Prefix and suffix gcds must refuse exactly the actions the gcd off
        # each coordinate refuses, naming the same first coordinate.
        r, twists = action
        first = brute_ill_formed_coordinate(r, twists)
        if first is None:
            assert CyclicQuotientType(r, twists).twists == tuple(b % r for b in twists)
            return
        with pytest.raises(IllFormedActionError) as exc:
            CyclicQuotientType(r, twists)
        assert exc.value.code == "ILL_FORMED_ACTION"
        assert str(exc.value) == (
            f"order {r} shares a factor with the twists off coordinate x{first}, "
            f"twists {tuple(b % r for b in twists)}"
        )

    def test_integer_verdict_matches_ages(self):
        for r in range(2, 13):
            for twists in itertools.product(range(r), repeat=3):
                if not well_formed(r, twists):
                    continue
                q = CyclicQuotientType(r, twists)
                assert is_terminal(q) == all(age > 1 for age in reid_tai_ages(q)), (r, twists)

    def test_age_strings_match_printed_fractions(self):
        # Ages do not depend on the order of the twists, so one order of
        # each multiset covers every well-formed action.
        assert _terminal_ages(CyclicQuotientType(3, (1, 2))) == (False, [3, 3])
        assert _age_texts(3, [3, 3]) == ["1", "1"]
        assert _terminal_ages(CyclicQuotientType(1, (0, 0))) == (True, [])
        assert _age_texts(1, []) == []
        for r in range(2, 31):
            for n in (2, 3):
                for twists in itertools.combinations_with_replacement(range(r), n):
                    if not well_formed(r, twists):
                        continue
                    q = CyclicQuotientType(r, twists)
                    verdict, sums = _terminal_ages(q)
                    ages = reid_tai_ages(q)
                    assert sums == [r * a for a in ages], (r, twists)
                    assert _age_texts(r, sums) == [str(a) for a in ages], (r, twists)
                    assert verdict == is_terminal(q), (r, twists)

    @given(st.integers(2, 60), st.lists(st.integers(0, 200), max_size=40), st.data())
    def test_age_texts_of_a_slice_are_that_slice_of_the_texts(self, r, sums, data):
        # The CLI formats the ages of `terminal --r` a block at a time.  Only
        # an order of at least 2 has ages.
        start = data.draw(st.integers(0, len(sums)))
        stop = data.draw(st.integers(start, len(sums)))
        texts = _age_texts(r, sums)
        assert texts == [str(Fraction(s, r)) for s in sums]
        assert _age_texts(r, sums[start:stop]) == texts[start:stop]

    def test_routes_match_integer_age_sums(self):
        # Up to three moving twists the verdict forms no age; compare it with
        # every integer sum r * age, for each multiset of two or three moving
        # twists behind a zero tail of length 0-2.
        # 1/5(2,3,2) is 1/5(1,4,1) under the generator j = 3.
        assert is_terminal(CyclicQuotientType(5, (2, 3, 2)))
        assert not is_terminal(CyclicQuotientType(7, (3, 5, 0)))
        assert is_terminal(CyclicQuotientType(1, (0, 0, 0)))
        checked = 0
        for r, m, tail in itertools.product(range(2, 31), (2, 3), range(3)):
            for moving in itertools.combinations_with_replacement(range(1, r), m):
                twists = moving + (0,) * tail
                if not well_formed(r, twists):
                    continue
                terminal = all(sum(j * b % r for b in twists) > r for j in range(1, r))
                assert is_terminal(CyclicQuotientType(r, twists)) == terminal, (r, twists)
                checked += 1
        assert checked == 78009

    def test_age_sums_are_walked_only_past_three_moving_twists(self, monkeypatch):
        # Count the walks of the age sums.  The family's blow-ups, whose b
        # charts move three twists, walk none.
        module = sys.modules["wblowup.charts"]
        age_sums, calls = module._age_sums, []

        def counted(q):
            calls.append(q)
            return age_sums(q)

        monkeypatch.setattr(module, "_age_sums", counted)
        for twists in [(0, 0), (1, 0, 6), (1, 6, 3, 0), (0, 2, 5, 1, 0)]:
            is_terminal(CyclicQuotientType(7 if any(twists) else 1, twists))
        assert is_terminal_blowup(Weight((1, 1, 2003, 2003, 0)))
        assert calls == []
        q = CyclicQuotientType(7, (1, 1, 1, 1))
        assert is_terminal(q) is False
        assert calls == [q]

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

    def test_chart_quotients_are_well_formed(self):
        # The charts module docstring proves that no chart quotient is ill
        # formed, so the blow-up verdict never raises ILL_FORMED_ACTION.  The
        # verdict reads `_chart_quotients`, which must give the charts' quotients,
        # one chart per positive entry in coordinate order.
        for k, tail in itertools.product(range(1, 5), range(2)):
            for entries in itertools.product(range(1, 7), repeat=k):
                if math.gcd(*entries) != 1:
                    continue
                w = Weight(entries + (0,) * tail)
                quotients = tuple(_chart_quotients(w))
                cs = charts(w)
                assert len(cs) == w.k, w
                for i, (c, ai) in enumerate(zip(cs, w.nonzero), start=1):
                    assert (c.index, c.quotient.order) == (i, ai), w
                assert quotients == tuple(c.quotient for c in cs), w
                for index, q in enumerate(quotients, start=1):
                    assert well_formed(q.order, q.twists), (w, index)
                is_terminal_blowup(w)

    def test_family_weights_are_terminal(self):
        for b, r, pad in itertools.product(range(1, 7), range(0, 4), range(0, 3)):
            w = Weight((1, 1) + (b,) * r + (0,) * pad)
            assert is_terminal_blowup(w), (b, r, pad)


class TestSubstitution:
    def test_exceptional_exponent_is_weighted_degree(self):
        w = Weight((10, 14, 35))
        m = M(5, 4, 1)
        for chart in charts(w):
            image = substitute_through_chart(chart, m)
            assert image.exponents[chart.index - 1] == 141

    def test_dimension_mismatch(self):
        chart = charts(Weight((1, 1)))[0]
        with pytest.raises(InvalidArgumentError):
            substitute_through_chart(chart, M(1, 0, 0))

    @given(st.data())
    @settings(max_examples=120)
    def test_exceptional_exponent_matches_weight(self, data):
        w = data.draw(weights())
        m = data.draw(monomials(n=w.n, max_exp=5))
        expected = monomial_weight(w, m)
        for chart in charts(w):
            image = substitute_through_chart(chart, m)
            assert image.exponents[chart.index - 1] == expected

    @given(st.data())
    @settings(max_examples=80)
    def test_multiplicative(self, data):
        w = data.draw(weights())
        m1 = data.draw(monomials(n=w.n, max_exp=4))
        m2 = data.draw(monomials(n=w.n, max_exp=4))
        for chart in charts(w):
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
        with pytest.raises(DimensionMismatchError):
            pushforward_membership(w, 1, Polynomial.from_monomial(M(1, 0, 0)))

    @given(st.data(), st.integers(0, 20))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_chart_substitution(self, data, d):
        w = data.draw(weights())
        f = data.draw(polynomials(n=w.n))
        assert pushforward_membership(w, d, f) == brute_pushforward_membership(w, d, f)

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
