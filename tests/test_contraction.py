"""Numerical profiles of the divisorial contraction family."""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction

import pytest

from oracles import high_length_weights
from wblowup import contraction
from wblowup.charts import cartier_index, discrepancy, is_terminal_blowup
from wblowup.contraction import (
    contraction_profile,
    validate_profile,
)
from wblowup.errors import (
    InvalidArgumentError,
    InvariantViolationError,
    NoSuchContractionError,
)
from wblowup.weights import Weight


class TestContractionProfile:
    def test_threefold_instance(self):
        p = contraction_profile(3, 1, 2)
        assert p.tau == Fraction(3, 2)
        assert p.weight == Weight((1, 1, 2))
        assert p.center_codim == 3
        assert p.fiber_dim == 2
        assert p.discrepancy == 3
        assert p.terminal
        assert p.charts.cartier_index == 2

    def test_ordinary_blowup_degeneration(self):
        p = contraction_profile(5, 0, 1)
        assert p.tau == 1
        assert p.weight == Weight((1, 1, 0, 0, 0))
        assert p.center_codim == 2
        assert p.fiber_dim == 1
        assert p.discrepancy == 1

    def test_fourfold_instance(self):
        p = contraction_profile(4, 2, 3)
        assert p.tau == Fraction(7, 3)
        assert p.weight == Weight((1, 1, 3, 3))
        assert p.center_codim == 4
        assert p.discrepancy == 7

    def test_center_must_fit(self):
        with pytest.raises(NoSuchContractionError) as exc:
            contraction_profile(3, 2, 1)
        assert exc.value.code == "NO_SUCH_CONTRACTION"
        with pytest.raises(NoSuchContractionError):
            contraction_profile(2, 1, 4)

    def test_argument_validation(self):
        with pytest.raises(InvalidArgumentError):
            contraction_profile(1, 0, 1)
        with pytest.raises(InvalidArgumentError):
            contraction_profile(4, -1, 1)
        with pytest.raises(InvalidArgumentError):
            contraction_profile(4, 1, 0)

    def test_non_terminal_chart_raises(self, monkeypatch):
        # The check is a raise, not an assert, so it also runs under python -O.
        monkeypatch.setattr(contraction, "is_terminal", lambda q: False)
        with pytest.raises(InvariantViolationError) as exc:
            contraction_profile(4, 2, 3)
        assert exc.value.code == "INVARIANT_VIOLATION"


class TestValidateProfile:
    def test_built_profiles_pass(self):
        for n, r, b in [(3, 1, 2), (5, 0, 1), (4, 2, 3), (10, 8, 6)]:
            report = validate_profile(contraction_profile(n, r, b))
            assert report.all_pass
            assert report.failures() == ()
            assert len(report.checks) == 7

    def test_wrong_fiber_dimension_is_flagged(self):
        p = contraction_profile(3, 1, 2)
        bad = dataclasses.replace(p, fiber_dim=p.r)
        report = validate_profile(bad)
        assert not report.all_pass
        assert [c.name for c in report.failures()] == ["fiber-dimension"]

    def test_nef_bound_violation_is_flagged(self):
        p = contraction_profile(3, 1, 2)
        bad = dataclasses.replace(p, tau=Fraction(p.n + 2))
        report = validate_profile(bad)
        failed = {c.name for c in report.failures()}
        assert "nef-value-bound" in failed

    def test_wrong_codimension_is_flagged(self):
        p = contraction_profile(4, 1, 3)
        bad = dataclasses.replace(p, center_codim=p.n)
        assert [c.name for c in validate_profile(bad).failures()] == [
            "center-codimension"
        ]

    def test_wrong_discrepancy_is_flagged(self):
        p = contraction_profile(4, 1, 3)
        bad = dataclasses.replace(p, discrepancy=p.discrepancy + 1)
        assert [c.name for c in validate_profile(bad).failures()] == ["discrepancy"]

    def test_wrong_weight_is_flagged(self):
        p = contraction_profile(4, 1, 3)
        bad = dataclasses.replace(p, weight=Weight((1, 1, 1, 1)))
        failed = {c.name for c in validate_profile(bad).failures()}
        assert "weight-shape" in failed

    def test_wrong_discrepancy_source_is_flagged(self, monkeypatch):
        # tau is read off the weight, so the closed form r + 1/b checks it.
        real = contraction.discrepancy
        monkeypatch.setattr(contraction, "discrepancy", lambda w: real(w) + 1)
        report = validate_profile(contraction_profile(3, 1, 2))
        assert "nef-value-formula" in {c.name for c in report.failures()}

    def test_check_details_are_informative(self):
        p = contraction_profile(3, 1, 2)
        bad = dataclasses.replace(p, fiber_dim=0)
        failure = validate_profile(bad).failures()[0]
        assert "fiber_dim = 0" in failure.detail


class TestFamilySweep:
    def test_all_profiles_validate(self):
        for n in range(2, 11):
            for r in range(0, n - 1):
                for b in range(1, 7):
                    p = contraction_profile(n, r, b)
                    assert validate_profile(p).all_pass, (n, r, b)

    def test_numerical_identities(self):
        for n, r, b in itertools.product(range(2, 8), range(0, 5), range(1, 7)):
            if r + 2 > n:
                continue
            p = contraction_profile(n, r, b)
            assert p.b * p.tau == p.r * p.b + 1 == p.discrepancy
            assert p.center_codim == p.r + 2
            assert p.fiber_dim == p.r + 1
            assert p.tau == p.r + Fraction(1, p.b)
            assert Fraction(p.fiber_dim) >= p.tau > p.r

    def test_profiles_cohere_with_chart_module(self):
        for n, r, b in [(3, 1, 2), (6, 3, 4), (10, 8, 6), (4, 0, 5)]:
            p = contraction_profile(n, r, b)
            assert p.discrepancy == discrepancy(p.weight)
            assert p.terminal == is_terminal_blowup(p.weight)
            assert p.charts.weight == p.weight
            assert len(p.charts.charts) == p.weight.k


class TestClassification:
    def test_only_the_family_has_high_length(self):
        # Sorted weights with gcd 1 and c = 2..5 entries: 847 in all.
        survivors = [
            w for c, top in [(2, 12), (3, 12), (4, 8), (5, 6)] for w in high_length_weights(c, top)
        ]
        assert len(survivors) == 27
        for w in survivors:
            c, b = w.n, cartier_index(w)
            assert w.entries == (1, 1) + (b,) * (c - 2)
            for n in (c, c + 1, c + 2):
                tailed = Weight(w.entries + (0,) * (n - c))
                p = contraction_profile(n, c - 2, b)
                assert p.weight == tailed
                assert p.tau == Fraction(discrepancy(tailed), cartier_index(tailed))
                assert p.discrepancy == discrepancy(tailed)
                assert p.charts.cartier_index == cartier_index(tailed)
                assert p.terminal == is_terminal_blowup(tailed)
