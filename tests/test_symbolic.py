"""Symbolic powers and their comparison with ordinary powers."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_symbolic
from strategies import ideals
from wblowup import symbolic
from wblowup.errors import (
    InvalidArgumentError,
    InvariantViolationError,
    RadicalNotPrimeError,
)
from wblowup.monomials import (
    Monomial,
    MonomialIdeal,
    contains_monomial,
    ideal_power,
    minimalize,
)
from wblowup.symbolic import (
    PrimaryMonomialIdeal,
    as_primary,
    symbolic_equals_ordinary,
    symbolic_power,
)
from wblowup.weights import Weight, weighted_ideal_gens


def M(*exps: int) -> Monomial:
    return Monomial(tuple(exps))


def I(*gens: Monomial) -> MonomialIdeal:
    return minimalize(gens)


class TestAsPrimary:
    def test_variable_radical(self):
        primary = as_primary(I(M(2, 0, 0), M(1, 1, 0), M(0, 3, 0)))
        assert primary.radical_vars == frozenset({1, 2})
        assert as_primary(I(M(2, 0, 0), M(1, 1, 0))).radical_vars == frozenset({1})

    def test_power_ideal(self):
        primary = as_primary(I(M(3, 0), M(0, 2)))
        assert primary.radical_vars == frozenset({1, 2})

    def test_mixed_radical_rejected(self):
        with pytest.raises(RadicalNotPrimeError) as exc:
            as_primary(I(M(1, 1, 0), M(1, 0, 1), M(0, 1, 1)))
        assert exc.value.code == "RADICAL_NOT_PRIME"

    def test_zero_and_unit_rejected(self):
        with pytest.raises(InvalidArgumentError):
            as_primary(MonomialIdeal.zero(2))
        with pytest.raises(InvalidArgumentError):
            as_primary(MonomialIdeal.unit(2))

    def test_radical_vars_validated(self):
        with pytest.raises(InvalidArgumentError):
            PrimaryMonomialIdeal(I(M(1, 0)), frozenset())
        with pytest.raises(InvalidArgumentError):
            PrimaryMonomialIdeal(I(M(1, 0)), frozenset({3}))


class TestSymbolicPower:
    def test_first_power_of_saturated_ideal_is_itself(self):
        primary = as_primary(I(M(3, 0), M(0, 2)))
        assert symbolic_power(primary, 1) == primary.ideal

    def test_strict_gap_regression(self):
        # Saturating (x1^2, x1*x2)^2 off x2 strips the embedded component.
        primary = as_primary(I(M(2, 0), M(1, 1)))
        sym = symbolic_power(primary, 2)
        assert sym.generators == (M(2, 0),)
        ordinary = ideal_power(primary.ideal, 2)
        assert ordinary.generators == (M(4, 0), M(3, 1), M(2, 2))
        verdict = symbolic_equals_ordinary(primary, 2)
        assert not verdict.equal
        assert verdict.witness == M(2, 0)

    def test_gap_regression_against_oracle(self):
        primary = as_primary(I(M(2, 0), M(1, 1)))
        for t in (1, 2, 3):
            assert symbolic_power(primary, t) == brute_symbolic(primary, t)

    def test_variable_ideal_in_larger_ring(self):
        primary = as_primary(I(M(1, 0, 0), M(0, 1, 0)))
        assert symbolic_equals_ordinary(primary, 2).equal
        assert symbolic_power(primary, 2).generators == (
            M(2, 0, 0),
            M(1, 1, 0),
            M(0, 2, 0),
        )

    def test_no_outside_variables_means_ordinary(self):
        primary = as_primary(I(M(2, 0), M(0, 3)))
        for t in (1, 2, 3):
            assert symbolic_power(primary, t) == ideal_power(primary.ideal, t)

    def test_exponent_validated(self):
        primary = as_primary(I(M(1, 0)))
        with pytest.raises(InvalidArgumentError):
            symbolic_power(primary, 0)

    def test_threshold_ideals_have_equal_powers(self):
        w = Weight((1, 1, 2, 0))
        primary = as_primary(weighted_ideal_gens(w, 2))
        for t in (2, 3):
            assert symbolic_equals_ordinary(primary, t).equal

    def test_family_thresholds_match_ordinary(self):
        for b, k in itertools.product((1, 2, 3), (2, 3)):
            w = Weight((1, 1) + (b,) * (k - 2) + (0,) * (4 - k))
            primary = as_primary(weighted_ideal_gens(w, b))
            for t in (2, 3):
                assert symbolic_equals_ordinary(primary, t).equal, (b, k, t)

    def test_escaped_ordinary_generator_raises(self, monkeypatch):
        # The check is a raise, not an assert, so it also runs under python -O.
        primary = as_primary(I(M(2, 0), M(1, 1)))
        monkeypatch.setattr(symbolic, "symbolic_power", lambda p, t: I(M(9, 9)))
        with pytest.raises(InvariantViolationError) as exc:
            symbolic_equals_ordinary(primary, 2)
        assert exc.value.code == "INVARIANT_VIOLATION"


class TestSymbolicProperties:
    @given(st.data(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_ordinary_contained_in_symbolic(self, data, n, t):
        ideal = data.draw(ideals(n=n, max_gens=4, max_exp=3, allow_zero=False))
        if ideal.is_unit():
            return
        try:
            primary = as_primary(ideal)
        except RadicalNotPrimeError:
            return
        sym = symbolic_power(primary, t)
        for g in ideal_power(ideal, t).generators:
            assert contains_monomial(sym, g)

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_colon_union_oracle(self, data, t):
        ideal = data.draw(ideals(n=3, max_gens=3, max_exp=3, allow_zero=False))
        if ideal.is_unit():
            return
        try:
            primary = as_primary(ideal)
        except RadicalNotPrimeError:
            return
        assert symbolic_power(primary, t) == brute_symbolic(primary, t)
