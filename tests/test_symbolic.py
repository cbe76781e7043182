"""Symbolic powers and their comparison with ordinary powers."""

from __future__ import annotations

import itertools
import pickle
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_as_primary,
    brute_compare_symbolic_power,
    brute_saturate,
    brute_symbolic,
)
from strategies import ideals, prime_radical_ideals
from wblowup import monomials, symbolic
from wblowup.errors import (
    InvalidArgumentError,
    InvariantViolationError,
    RadicalNotPrimeError,
    WblowupError,
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
    compare_symbolic_power,
    symbolic_equals_ordinary,
    symbolic_power,
)
from wblowup.weights import Weight, weighted_ideal_gens


def M(*exps: int) -> Monomial:
    return Monomial(tuple(exps))


def I(*gens: Monomial) -> MonomialIdeal:
    return minimalize(gens)


def outside_radical(primary: PrimaryMonomialIdeal) -> Monomial:
    """The product of the variables outside the radical."""
    n = primary.ideal.ambient_dim
    return Monomial(tuple(0 if i in primary.radical_vars else 1 for i in range(1, n + 1)))


def saturated(primary: PrimaryMonomialIdeal) -> bool:
    """Whether the verdict answers EQUAL without reading the generators it is given.

    It is given the unit monomial, which lies in no power of a proper
    ideal, so reading it gives NOT_EQUAL.
    """
    return symbolic._verdict(primary, [(0,) * primary.ideal.ambient_dim], 2).equal


def threshold_plus_off_radical() -> PrimaryMonomialIdeal:
    """I_6 of (1, 1, 1, 1, 1, 0) and x1^5*x6, whose saturation holds x1^5."""
    ideal = weighted_ideal_gens(Weight((1, 1, 1, 1, 1, 0)), 6)
    return as_primary(minimalize((*ideal.generators, M(5, 0, 0, 0, 0, 1)), 6))


class TestAsPrimary:
    def test_variable_radical(self):
        primary = as_primary(I(M(2, 0, 0), M(1, 1, 0), M(0, 3, 0)))
        assert primary.radical_vars == frozenset({1, 2})
        assert as_primary(I(M(2, 0, 0), M(1, 1, 0))).radical_vars == frozenset({1})

    def test_power_ideal(self):
        primary = as_primary(I(M(3, 0), M(0, 2)))
        assert primary.radical_vars == frozenset({1, 2})

    def test_mixed_radical_rejected(self):
        message = "radical generator with support [1, 2] involves more than one variable"
        with pytest.raises(RadicalNotPrimeError) as exc:
            as_primary(I(M(1, 1, 0), M(1, 0, 1), M(0, 1, 1)))
        assert exc.value.code == "RADICAL_NOT_PRIME"
        assert str(exc.value) == message
        # The least generator of rad(I), not the support of I's first generator.
        with pytest.raises(RadicalNotPrimeError) as exc:
            as_primary(I(M(0, 0, 1, 1), M(3, 1, 0, 0)))
        assert str(exc.value) == message

    def test_zero_and_unit_rejected(self):
        with pytest.raises(InvalidArgumentError):
            as_primary(MonomialIdeal.zero(2))
        with pytest.raises(InvalidArgumentError):
            as_primary(MonomialIdeal.unit(2))

    @given(ideals(max_dim=5, max_gens=6, max_exp=3))
    @example(MonomialIdeal.zero(2))
    @example(MonomialIdeal.unit(3))
    @settings(max_examples=500, deadline=None)
    def test_matches_radical_oracle(self, ideal):
        # Same radical variables, or the same error, as the route that forms
        # rad(I), through `as_primary` and through the constructor.
        def outcome(route):
            try:
                return route(ideal)
            except WblowupError as exc:
                return type(exc), exc.code, str(exc)

        expected = outcome(brute_as_primary)
        assert outcome(lambda i: as_primary(i).radical_vars) == expected
        assert outcome(lambda i: PrimaryMonomialIdeal(i).radical_vars) == expected

    def test_radical_vars_validated(self):
        # The one-argument constructor works out the radical and refuses
        # the zero and unit ideals and a mixed radical generator.
        for ideal in (MonomialIdeal.zero(2), MonomialIdeal.unit(2)):
            with pytest.raises(InvalidArgumentError) as exc:
                PrimaryMonomialIdeal(ideal)
            assert str(exc.value) == "the zero and unit ideals carry no radical data"
        with pytest.raises(RadicalNotPrimeError) as exc:
            PrimaryMonomialIdeal(I(M(1, 0, 1), M(0, 1, 1)))
        assert exc.value.code == "RADICAL_NOT_PRIME"
        assert str(exc.value) == (
            "radical generator with support [1, 3] involves more than one variable"
        )
        with pytest.raises(TypeError):
            PrimaryMonomialIdeal(I(M(1, 0)), frozenset({1}))

    def test_dataclass_behaviour(self):
        ideal = I(M(2, 0, 0), M(1, 1, 1), M(0, 3, 0))
        primary = PrimaryMonomialIdeal(ideal=ideal)
        assert primary == as_primary(ideal) and hash(primary) == hash(as_primary(ideal))
        assert repr(primary) == (
            "PrimaryMonomialIdeal(ideal=MonomialIdeal(ambient_dim=3, "
            "exponents=((2, 0, 0), (1, 1, 1), (0, 3, 0))), radical_vars=frozenset({1, 2}))"
        )
        assert [(f.name, f.init) for f in fields(PrimaryMonomialIdeal)] == [
            ("ideal", True),
            ("radical_vars", False),
        ]
        # replace builds through the constructor, which works out the radical
        # again, and refuses a radical handed in.
        assert replace(primary, ideal=I(M(3, 0, 0), M(0, 0, 1))).radical_vars == {1, 3}
        with pytest.raises(RadicalNotPrimeError):
            replace(primary, ideal=I(M(1, 1, 0)))
        with pytest.raises(ValueError, match="init=False"):
            replace(primary, radical_vars=frozenset({1}))
        assert pickle.loads(pickle.dumps(primary)) == primary
        with pytest.raises(FrozenInstanceError):
            primary.ideal = I(M(1, 0, 0))
        with pytest.raises(FrozenInstanceError):
            primary.radical_vars = frozenset({1})
        assert (primary.ideal, primary.radical_vars) == (ideal, frozenset({1, 2}))


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

    @pytest.mark.parametrize("t", [2.0, 1.5, Fraction(2), "2"])
    def test_non_integer_exponents_refused(self, t):
        # (x1^2, x2^3) is saturated, so the EQUAL shortcut would answer a
        # float; the exponent is checked first.  (x1^2, x1*x2) is not.
        for ideal in (I(M(2, 0), M(0, 3)), I(M(2, 0), M(1, 1))):
            primary = as_primary(ideal)
            routes = [
                lambda: ideal_power(ideal, t),
                lambda: symbolic_power(primary, t),
                lambda: symbolic_equals_ordinary(primary, t),
                lambda: compare_symbolic_power(primary, t),
            ]
            for route in routes:
                with pytest.raises(InvalidArgumentError, match="must be an integer") as exc:
                    route()
                assert exc.value.code == "INVALID_ARGUMENT"

    @pytest.mark.parametrize("t", [2, 3])
    def test_equal_although_saturation_removes_a_generator(self, t):
        # sat(I) = (x1, x2)^4 drops x1^2*x2^2*x3, yet I^t holds every
        # generator of (x1, x2)^(4t): the lazy walk runs to its end.
        primary = as_primary(I(M(4, 0, 0), M(3, 1, 0), M(1, 3, 0), M(0, 4, 0), M(2, 2, 1)))
        assert not saturated(primary)
        sym, verdict = compare_symbolic_power(primary, t)
        assert (sym, verdict) == brute_compare_symbolic_power(primary, t)
        assert verdict.equal
        assert symbolic_equals_ordinary(primary, t) == verdict
        assert len(sym.exponents) == 4 * t + 1

    @staticmethod
    def counted_scans(monkeypatch) -> list[list[tuple[int, ...]]]:
        """The tuples each antichain scan draws, one list per scan, from now on."""
        scans = []
        antichain = monomials._grlex_antichain

        def counted(exps):
            drawn = []
            scans.append(drawn)
            for e in antichain(exps):
                drawn.append(e)
                yield e

        monkeypatch.setattr(monomials, "_grlex_antichain", counted)
        return scans

    def test_first_witness_stops_the_walk(self, monkeypatch):
        primary = threshold_plus_off_radical()
        assert symbolic_equals_ordinary(primary, 3).witness == M(15, 0, 0, 0, 0, 0)
        # At t = 2 the first generator of the symbolic power, (x1^5)^2, is
        # missed.  It comes before any product step, so only the
        # saturation's antichain scan runs.
        scans = self.counted_scans(monkeypatch)
        verdict = symbolic_equals_ordinary(primary, 2)
        assert verdict.witness == M(10, 0, 0, 0, 0, 0)
        assert len(scans) == 1
        sym, expected = compare_symbolic_power(primary, 2)
        assert verdict == expected
        assert sym.exponents[0] == (10, 0, 0, 0, 0, 0)

    def test_second_witness_stops_the_last_step(self, monkeypatch):
        # sat(I) = (x1^2, x1*x2, x2^3), and x1^6 = (x1^2)^3 lies in I^3, but
        # x1^5*x2, the second of the 7 symbolic generators, does not.  The
        # saturation and both product steps scan; the last step's scan draws
        # the first tuple, which the stream skips, and the witness.
        primary = as_primary(I(M(2, 0, 0), M(0, 3, 0), M(1, 1, 1)))
        scans = self.counted_scans(monkeypatch)
        verdict = symbolic_equals_ordinary(primary, 3)
        assert verdict.witness == M(5, 1, 0)
        assert len(scans) == 3 and scans[-1] == [(6, 0, 0), (5, 1, 0)]
        sym, expected = compare_symbolic_power(primary, 3)
        assert verdict == expected
        assert sym.exponents[:2] == ((6, 0, 0), (5, 1, 0)) and len(sym.exponents) == 7

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

    def test_radical_given_directly_must_be_the_radical(self):
        # The radical cannot be given, only worked out, and the errors name
        # the least mixed generator of rad(I).
        def refused(ideal):
            with pytest.raises(RadicalNotPrimeError) as exc:
                PrimaryMonomialIdeal(ideal)
            return str(exc.value).split(" involves")[0]

        # (x1*x2) has the radical (x1*x2): no pure power of x1.
        assert refused(I(M(1, 1))) == "radical generator with support [1, 2]"
        # (x1, x2^2*x3): no pure power of x3, and x2*x3 avoids x1.
        assert refused(I(M(1, 0, 0), M(0, 2, 1))) == "radical generator with support [2, 3]"
        # (x1^2, x2^2, x3*x4): x3*x4 involves neither pure variable.
        mixed = I(M(2, 0, 0, 0), M(0, 2, 0, 0), M(0, 0, 1, 1))
        assert refused(mixed) == "radical generator with support [3, 4]"
        # (x1^2, x2^3) has the radical (x1, x2): a pure power of each.
        assert PrimaryMonomialIdeal(I(M(2, 0), M(0, 3))).radical_vars == frozenset({1, 2})
        primary = PrimaryMonomialIdeal(I(M(2, 0, 0), M(1, 0, 5)))
        assert primary.radical_vars == frozenset({1})
        assert primary == as_primary(primary.ideal)
        assert hash(primary) == hash(as_primary(primary.ideal))
        # `replace` works the radical out again and refuses a given one.
        wider = replace(primary, ideal=I(M(2, 0, 0), M(0, 1, 0)))
        assert wider.radical_vars == frozenset({1, 2})
        with pytest.raises(ValueError):
            replace(primary, radical_vars=frozenset({1, 3}))

    def test_last_factor_is_tested_by_divisibility(self):
        # Saturating (x2, x1*x3, x3^2) off x1 gives (x2, x3).  x2*x3 has the
        # degree of two factors, but x2*x3 / x2 = x3 is not in the ideal.
        primary = as_primary(I(M(0, 1, 0), M(1, 0, 1), M(0, 0, 2)))
        sym, verdict = compare_symbolic_power(primary, 2)
        assert sym.generators == (M(0, 2, 0), M(0, 1, 1), M(0, 0, 2))
        assert verdict.witness == M(0, 1, 1)
        assert symbolic_equals_ordinary(primary, 2) == verdict

    def test_escaped_ordinary_generator_raises(self, monkeypatch):
        # The check is a raise, not an assert, so it also runs under python -O.
        primary = as_primary(I(M(2, 0), M(1, 1)))
        monkeypatch.setattr(symbolic, "_saturation", lambda exps, keep: ((9, 9),))
        for route in (symbolic_equals_ordinary, symbolic_power, compare_symbolic_power):
            with pytest.raises(InvariantViolationError) as exc:
                route(primary, 2)
            assert exc.value.code == "INVARIANT_VIOLATION"

    def test_saturated_comparison_checks_its_saturation(self, monkeypatch):
        # (x1^2, x2^3) is saturated: the verdict alone reads that off the
        # generators and saturates nothing, but the symbolic power is formed
        # through the saturation, and its check runs.
        primary = as_primary(I(M(2, 0), M(0, 3)))
        monkeypatch.setattr(symbolic, "_saturation", lambda exps, keep: ((9, 9),))
        assert symbolic_equals_ordinary(primary, 2).equal
        for route in (symbolic_power, compare_symbolic_power):
            with pytest.raises(InvariantViolationError) as exc:
                route(primary, 2)
            assert exc.value.code == "INVARIANT_VIOLATION"


class TestSymbolicProperties:
    @given(st.data(), st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_saturated_iff_saturation_is_the_ideal(self, data, n):
        ideal = data.draw(prime_radical_ideals(n=n, max_exp=3))
        primary = as_primary(ideal)
        assert saturated(primary) == (brute_saturate(ideal, outside_radical(primary)) == ideal)
        if saturated(primary):
            assert symbolic_equals_ordinary(primary, 2).equal

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

    @given(st.data(), st.integers(1, 5), st.integers(1, 4))
    @settings(max_examples=500, deadline=None)
    def test_comparison_matches_ordinary_power_oracle(self, data, n, t):
        # Generators, verdict and witness against the route that forms I^t.
        ideal = data.draw(prime_radical_ideals(n=n, max_exp=3))
        primary = as_primary(ideal)
        sym, verdict = compare_symbolic_power(primary, t)
        assert (sym, verdict) == brute_compare_symbolic_power(primary, t)
        assert symbolic_power(primary, t) == sym
        assert symbolic_equals_ordinary(primary, t) == verdict
