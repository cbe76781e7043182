"""Weight vectors, threshold ideals, power equality and slicing."""

from __future__ import annotations

import itertools
import math
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_box_gens,
    brute_power_equality,
    grlex_key,
    slicing_decomposition_check,
)
from strategies import monomials, polynomials, weights
from wblowup.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    InvalidWeightError,
    ZeroPolynomialError,
)
from wblowup.monomials import (
    Monomial,
    Polynomial,
    _grlex,
    contains,
    contains_monomial,
    ideal_power,
)
from wblowup.weights import (
    Weight,
    _minimal_generator_exponents,
    _minimal_ideal,
    _power_equality,
    find_normality_index,
    monomial_weight,
    power_equality,
    sigma_wt,
    weighted_ideal_gens,
)


def M(*exps: int) -> Monomial:
    return Monomial(tuple(exps))


def uncached_power_equality(w: Weight, L: int, d: int):
    """The power search itself, past the per-process verdict cache."""
    return _power_equality.__wrapped__(w.entries, L, d)


# Neither a float, a fraction nor a string is an integer threshold.
NON_INTEGERS = [4.0, Fraction(4), "4"]

# Malformed weights and the exact message of each.  The checks run in a
# fixed order: integer entries, at least one entry, a positive first entry,
# no negative entry, the positive entries before the zeros, gcd 1.  An
# input that breaks two rules gets the message of the first.
MALFORMED_WEIGHTS = [
    ([1.5, 2], "non-integer weight entry in [1.5, 2]"),
    ((1, 0.0), "non-integer weight entry in (1, 0.0)"),
    (("a", 1), "non-integer weight entry in ('a', 1)"),
    ((2.0, 4), "non-integer weight entry in (2.0, 4)"),
    ((0, -1.5), "non-integer weight entry in (0, -1.5)"),
    ((), "a weight needs at least one entry"),
    ((0, 1), "leading weight entries must be positive"),
    ((0, -1), "leading weight entries must be positive"),
    ((-2, 4), "leading weight entries must be positive"),
    ((2, -1), "weight entries must be non-negative, got (2, -1)"),
    ((2, -1, 0), "weight entries must be non-negative, got (2, -1, 0)"),
    ((1, 0, -1), "weight entries must be non-negative, got (1, 0, -1)"),
    ((1, 0, 2), "positive entries must precede the zero entries, got (1, 0, 2)"),
    ((2, 0, 4), "positive entries must precede the zero entries, got (2, 0, 4)"),
    ((1, 0, 0, 3, 0), "positive entries must precede the zero entries, got (1, 0, 0, 3, 0)"),
    ((2, 4), "gcd of the positive entries must be 1, got (2, 4)"),
    ((6, 10, 14, 0), "gcd of the positive entries must be 1, got (6, 10, 14)"),
]


def leading_positive(entries: tuple[int, ...]) -> int:
    """The number of positive entries before the first entry that is not."""
    count = 0
    for e in entries:
        if e <= 0:
            break
        count += 1
    return count


class TestWeight:
    def test_basic_properties(self):
        w = Weight((10, 14, 35))
        assert (w.n, w.k, w.nonzero) == (3, 3, (10, 14, 35))
        padded = Weight((1, 1, 2, 0, 0))
        assert (padded.n, padded.k, padded.nonzero) == (5, 3, (1, 1, 2))

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidWeightError):
            Weight(())
        with pytest.raises(InvalidWeightError, match="leading weight entries must be positive"):
            Weight((0, 1))
        with pytest.raises(InvalidWeightError, match="leading weight entries must be positive"):
            Weight((-1, 2))
        with pytest.raises(InvalidWeightError, match="precede the zero entries"):
            Weight((1, 0, 2))
        with pytest.raises(InvalidWeightError, match=r"non-negative, got \(2, -1\)"):
            Weight((2, -1))
        with pytest.raises(InvalidWeightError, match="non-negative"):
            Weight((1, 0, -1))
        # Not a raw TypeError, and no float entry: sigma_wt would answer 1.0.
        for entries in ((1.5, 2), ("a", 1), (1, 0.0)):
            with pytest.raises(InvalidWeightError, match="non-integer weight entry in"):
                Weight(entries)

    @pytest.mark.parametrize("entries, message", MALFORMED_WEIGHTS)
    def test_refusals_in_order(self, entries, message):
        with pytest.raises(InvalidWeightError) as exc:
            Weight(entries)
        assert exc.value.code == "INVALID_WEIGHT"
        assert str(exc.value) == message

    @given(weights(max_dim=8))
    def test_k_counts_the_leading_positive_entries(self, w):
        k = leading_positive(w.entries)
        assert w.k == k and w.nonzero == w.entries[:k]
        assert all(w.nonzero) and not any(w.entries[k:])

    def test_dataclass_behaviour(self):
        w = Weight(entries=[2, 3, 0])
        assert w == Weight((2, 3, 0)) and hash(w) == hash(Weight((2, 3, 0)))
        assert type(w.entries) is tuple
        assert repr(w) == "Weight(entries=(2, 3, 0))"
        assert [f.name for f in fields(Weight)] == ["entries"]
        assert replace(w, entries=[1, 1]) == Weight((1, 1))
        assert type(replace(w, entries=[1, 1]).entries) is tuple
        with pytest.raises(InvalidWeightError, match="gcd of the positive entries"):
            replace(w, entries=(2, 4))
        assert pickle.loads(pickle.dumps(w)) == w
        with pytest.raises(FrozenInstanceError):
            w.entries = (1, 1, 0)
        assert w.entries == (2, 3, 0)

    def test_rejects_common_factor(self):
        with pytest.raises(InvalidWeightError):
            Weight((2, 4))
        with pytest.raises(InvalidWeightError):
            Weight((6, 10, 14, 0))

    def test_pairwise_non_coprime_is_fine(self):
        Weight((6, 10, 15))  # gcd = 1 overall

    def test_error_carries_code(self):
        with pytest.raises(InvalidWeightError) as exc:
            Weight((3, 3))
        assert exc.value.code == "INVALID_WEIGHT"


class TestSigmaWt:
    def test_monomial_weight(self):
        w = Weight((10, 14, 35))
        assert monomial_weight(w, M(5, 4, 1)) == 141
        assert monomial_weight(w, M(0, 0, 0)) == 0

    def test_polynomial_takes_minimum(self):
        w = Weight((1, 1, 2))
        f = Polynomial.from_terms([(M(0, 0, 2), 1), (M(1, 1, 0), -1)], 3)
        assert sigma_wt(w, f) == 2

    def test_constants_have_weight_zero(self):
        w = Weight((3, 5))
        assert sigma_wt(w, Polynomial.from_terms([(M(0, 0), 7)], 2)) == 0

    def test_zero_polynomial_rejected(self):
        w = Weight((1, 1))
        with pytest.raises(ZeroPolynomialError):
            sigma_wt(w, Polynomial.zero(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="ambient dimensions differ: 2 vs 3"):
            monomial_weight(Weight((1, 1)), M(1, 0, 0))
        with pytest.raises(DimensionMismatchError) as exc:
            sigma_wt(Weight((1, 1, 2)), Polynomial.from_monomial(M(1, 0)))
        assert exc.value.code == "DIMENSION_MISMATCH"

    @given(st.data())
    @settings(max_examples=120)
    def test_additive_on_products(self, data):
        w = data.draw(weights())
        f = data.draw(polynomials(n=w.n))
        g = data.draw(monomials(n=w.n, max_exp=4))
        product = f * Polynomial.from_monomial(g)
        assert sigma_wt(w, product) == sigma_wt(w, f) + monomial_weight(w, g)


class TestWeightedIdealGens:
    def test_small_example(self):
        gens = weighted_ideal_gens(Weight((1, 1, 2)), 2).generators
        assert gens == (M(0, 0, 1), M(2, 0, 0), M(1, 1, 0), M(0, 2, 0))

    def test_threshold_zero_is_unit(self):
        assert weighted_ideal_gens(Weight((3, 7)), 0).is_unit()

    def test_threshold_one_is_variable_span(self):
        gens = weighted_ideal_gens(Weight((2, 3, 0)), 1).generators
        assert gens == (M(1, 0, 0), M(0, 1, 0))

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidArgumentError):
            weighted_ideal_gens(Weight((1, 2)), -1)

    @pytest.mark.parametrize("d", NON_INTEGERS)
    @pytest.mark.parametrize("entries", [(1, 0), (1, 2), (1, 2, 3)])
    def test_non_integer_threshold_rejected(self, entries, d):
        with pytest.raises(InvalidArgumentError, match="threshold must be an integer"):
            weighted_ideal_gens(Weight(entries), d)

    def test_float_threshold_leaves_the_cache_clean(self):
        # 4.0 == 4 in a cache key: a float answered first would be handed
        # back for the int.
        _minimal_ideal.cache_clear()
        w = Weight((1, 0))
        with pytest.raises(InvalidArgumentError):
            weighted_ideal_gens(w, 4.0)
        exps = weighted_ideal_gens(w, 4).exponents
        assert exps == ((4, 0),)
        assert all(type(s) is int for e in exps for s in e)

    def test_single_variable(self):
        gens = weighted_ideal_gens(Weight((1,)), 5).generators
        assert gens == (M(5),)

    def test_two_entries_at_a_large_threshold(self):
        # x1^(2j) * x2^(10000 - j) for j = 0..10000, in grlex order.
        exps = weighted_ideal_gens(Weight((1, 2)), 20000).exponents
        assert len(exps) == 10001
        assert exps == tuple(_grlex(exps))

    @pytest.mark.parametrize("k, d", [(5, 30), (8, 12)])
    def test_all_ones_weight_in_grlex_order(self, k, d):
        # Every monomial of degree d, C(d + k - 1, k - 1) of them (46,376 and
        # 50,388), all in one degree list: beyond the box oracle's reach.
        exps = weighted_ideal_gens(Weight((1,) * k), d).exponents
        assert len(exps) == math.comb(d + k - 1, k - 1)
        assert exps == tuple(_grlex(exps))

    def test_skewed_weight_stays_near_its_output_in_memory(self):
        # 5,151 generators whose degrees run from 100 to 10**6: a list per
        # possible degree would take about 60 MB.  The light variable comes
        # last or first; the search visits the heavy ones first either way.
        for entries in ((10000, 10001, 1), (1, 10000, 10001)):
            tracemalloc.start()
            try:
                exps = _minimal_generator_exponents(entries, 10**6)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(exps) == 5151
            assert exps == _grlex(exps)
            assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "entries, d",
        [((2, 4), 9), ((6, 4, 0), 13), ((2, 4, 6), 13), ((3, 6, 9, 3), 10), ((4, 2, 2, 0, 0), 7)],
    )
    def test_raw_entries_give_grlex_order(self, entries, d):
        # Entries with a common factor, which Weight refuses.
        exps = _minimal_generator_exponents(entries, d)
        assert exps == _grlex(exps)
        assert set(exps) == brute_box_gens(entries, d)

    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=3),
        st.integers(0, 2),
        st.integers(0, 16),
    )
    @example([1], 0, 12)
    @example([2, 3], 2, 7)
    @example([1, 4], 1, 0)
    # One positive entry, and two (the two-coordinate step with no
    # recursion above it), with zero tails.
    @example([3], 2, 10)
    @example([5], 1, 1)
    @example([2, 5], 2, 16)
    @example([4, 3], 1, 13)
    # Four and five positive entries, beyond what the strategy draws.
    @example([1, 2, 3, 5], 0, 9)
    @example([3, 1, 4, 2], 1, 8)
    @example([2, 3, 1, 4, 5], 0, 5)
    @example([1, 1, 2, 2, 3], 1, 4)
    # Three to five positive entries with zero tails: lists per degree.
    @example([2, 3, 5], 2, 14)
    @example([1, 1, 1], 1, 6)
    @example([4, 1, 3, 2], 2, 9)
    @example([1, 1, 1, 1, 1], 2, 4)
    @example([5, 2, 1, 3, 4], 1, 6)
    # Tied entries and the lightest entry not last: the search visits the
    # coordinates heaviest first and puts each exponent back in its slot.
    @example([5, 1, 5], 0, 16)
    @example([1, 3, 3, 2], 2, 11)
    @example([2, 2, 1, 2], 1, 9)
    @example([1, 4, 4], 2, 13)
    @example([3, 1, 2, 3, 1], 0, 7)
    @settings(max_examples=100, deadline=None)
    def test_generators_match_box_oracle_in_grlex_order(self, positive, zeros, d):
        if math.gcd(*positive) != 1:
            positive[0] = 1
        w = Weight(tuple(positive) + (0,) * zeros)
        gens = weighted_ideal_gens(w, d).generators
        assert {g.exponents for g in gens} == brute_box_gens(w.entries, d)
        keys = [grlex_key(g) for g in gens]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    @given(st.data(), st.integers(0, 30))
    @settings(max_examples=120)
    def test_generators_meet_threshold_minimally(self, data, d):
        w = data.draw(weights())
        ideal = weighted_ideal_gens(w, d)
        for g in ideal.generators:
            wt = monomial_weight(w, g)
            assert wt >= d
            support = [i for i, e in enumerate(g.exponents) if e > 0]
            if d > 0 and support:
                assert wt < d + min(w.entries[i] for i in support)
            assert all(g.exponents[i] == 0 for i in range(w.k, w.n))

    @given(st.data(), st.integers(0, 20))
    @settings(max_examples=120)
    def test_membership_matches_weight_threshold(self, data, d):
        w = data.draw(weights())
        m = data.draw(monomials(n=w.n, max_exp=8))
        ideal = weighted_ideal_gens(w, d)
        assert contains_monomial(ideal, m) == (monomial_weight(w, m) >= d)

    def test_trailing_zeros_extend_generators(self):
        narrow = weighted_ideal_gens(Weight((2, 5)), 7)
        wide = weighted_ideal_gens(Weight((2, 5, 0, 0)), 7)
        assert [g.exponents + (0, 0) for g in narrow.generators] == [
            g.exponents for g in wide.generators
        ]

    def test_thresholds_nest(self):
        w = Weight((3, 4, 7))
        for d in range(0, 25):
            lower = weighted_ideal_gens(w, d)
            higher = weighted_ideal_gens(w, d + 1)
            for g in higher.generators:
                assert contains_monomial(lower, g)


class TestPowerEquality:
    def test_equal_case(self):
        assert power_equality(Weight((1, 1, 2, 0)), 2, 3).equal

    def test_not_equal_with_witness(self):
        verdict = power_equality(Weight((10, 14, 35)), 70, 2)
        assert not verdict.equal
        assert verdict.witness == M(5, 4, 1)
        assert verdict.verdict == "NOT_EQUAL"

    def test_witness_is_genuine(self):
        w = Weight((10, 14, 35))
        verdict = power_equality(w, 70, 2)
        assert monomial_weight(w, verdict.witness) >= 140
        square = ideal_power(weighted_ideal_gens(w, 70), 2)
        assert not contains_monomial(square, verdict.witness)
        assert contains_monomial(weighted_ideal_gens(w, 140), verdict.witness)

    def test_first_power_always_equal(self):
        for entries in [(1, 1), (2, 3), (10, 14, 35), (1, 1, 5, 0)]:
            assert power_equality(Weight(entries), 9, 1).equal

    def test_large_exponent_stays_off_the_recursion_limit(self):
        # The search is one level deep per factor, so d = 1500 needs a stack
        # deeper than the interpreter's default recursion limit.
        assert power_equality(Weight((1, 0)), 3, 1500).equal

    def test_argument_validation(self):
        w = Weight((1, 2))
        # Asked again, a refused point is refused again: no cache holds it.
        for _ in range(3):
            with pytest.raises(InvalidArgumentError):
                power_equality(w, 0, 2)
            with pytest.raises(InvalidArgumentError):
                power_equality(w, 2, 0)

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_non_integer_arguments_rejected(self, value):
        for w in (Weight((1, 0)), Weight((1, 2))):
            with pytest.raises(InvalidArgumentError, match="threshold L must be an integer"):
                power_equality(w, value, 2)
            with pytest.raises(InvalidArgumentError, match="power exponent must be an integer"):
                power_equality(w, 2, value)

    def test_float_arguments_leave_the_caches_clean(self):
        _power_equality.cache_clear()
        _minimal_ideal.cache_clear()
        w = Weight((1, 1, 3))
        for L, d in [(1.0, 2), (1, 2.0)]:
            with pytest.raises(InvalidArgumentError):
                power_equality(w, L, d)
        assert _power_equality.cache_info().currsize == 0
        verdict = power_equality(w, 1, 2)
        assert verdict == uncached_power_equality(w, 1, 2) == brute_power_equality(w, 1, 2)
        assert all(type(s) is int for s in verdict.witness.exponents)

    def test_uniform_weights_always_equal(self):
        w = Weight((1, 1, 1))
        for L, d in itertools.product(range(1, 6), range(1, 5)):
            assert power_equality(w, L, d).equal

    def test_family_weights_at_matching_threshold(self):
        for b, n in itertools.product(range(1, 6), range(3, 7)):
            for k in range(2, n + 1):
                w = Weight((1, 1) + (b,) * (k - 2) + (0,) * (n - k))
                for d in (2, 3, 4):
                    assert power_equality(w, b, d).equal, (b, n, k, d)

    @pytest.mark.parametrize("entries, L", [((2, 3), 1), ((3, 5), 4)])
    def test_least_generator_weight_above_threshold(self, entries, L):
        # Every generator of the threshold-L ideal weighs more than L here,
        # so the search cuts below t times that least weight, not t*L.
        w = Weight(entries)
        for d in range(2, 5):
            expected = brute_power_equality(w, L, d)
            assert uncached_power_equality(w, L, d) == expected, d
            assert power_equality(w, L, d) == expected, d

    @pytest.mark.parametrize("entries", [(1, 5, 2), (5, 1, 3), (3, 1, 2)])
    @pytest.mark.parametrize("zeros", [0, 1])
    def test_weight_order_differs_from_grlex_order(self, entries, zeros):
        # The search tries factors lightest first, which is not their grlex
        # order here, and cuts each frame by one bisection of their weights;
        # d = 4 reaches that cut three frames deep.
        w = Weight(entries + (0,) * zeros)
        for L, d in itertools.product(range(1, 7), range(2, 5)):
            expected = brute_power_equality(w, L, d)
            assert uncached_power_equality(w, L, d) == expected, (L, d)
            assert power_equality(w, L, d) == expected, (L, d)

    @pytest.mark.parametrize(
        "entries, L, equal_up_to, last_d, witness",
        [((2, 3, 5), 20, 2, 5, None), ((4, 5), 4, 4, 5, (0, 4))],
    )
    def test_equal_at_small_exponents_only(self, entries, L, equal_up_to, last_d, witness):
        # A finite d_max certifies nothing above it: (2, 3, 5) at L = 20
        # fails from d = 3 on, (4, 5) at L = 4 first at d = 5.
        w = Weight(entries)
        for d in range(2, last_d + 1):
            for verdict in (power_equality(w, L, d), uncached_power_equality(w, L, d)):
                assert verdict.equal == (d <= equal_up_to), d
        if witness is not None:
            assert power_equality(w, L, last_d).witness == Monomial(witness)
            assert uncached_power_equality(w, L, last_d).witness == Monomial(witness)

    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=4),
        st.integers(0, 2),
        st.integers(1, 12),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_search_matches_power_oracle(self, positive, zeros, L, d):
        if math.gcd(*positive) != 1:
            positive[0] = 1
        w = Weight(tuple(positive) + (0,) * zeros)
        expected = brute_power_equality(w, L, d)
        assert uncached_power_equality(w, L, d) == expected
        assert power_equality(w, L, d) == expected

    @given(st.data(), st.integers(1, 8), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_verdict_matches_ideal_comparison(self, data, L, d):
        w = data.draw(weights(max_dim=4, max_entry=6))
        verdict = uncached_power_equality(w, L, d)
        assert power_equality(w, L, d) == verdict
        power = ideal_power(weighted_ideal_gens(w, L), d)
        target = weighted_ideal_gens(w, d * L)
        direct = all(contains_monomial(power, g) for g in target.generators)
        assert verdict.equal == direct
        if not verdict.equal:
            assert contains_monomial(target, verdict.witness)
            assert not contains_monomial(power, verdict.witness)


class TestFindNormalityIndex:
    def test_smooth_case_is_one(self):
        assert find_normality_index(Weight((1, 1)), 3, 5) == 1

    def test_single_heavy_entry(self):
        assert find_normality_index(Weight((1, 1, 3)), 3, 10) == 3

    def test_small_thresholds_fail_first(self):
        w = Weight((1, 1, 3))
        assert not power_equality(w, 1, 2).equal
        assert not power_equality(w, 2, 2).equal
        assert power_equality(w, 3, 2).equal

    def test_none_when_out_of_range(self):
        assert find_normality_index(Weight((10, 14, 35)), 2, 70) is None

    def test_certified_index_checks_all_exponents(self):
        w = Weight((1, 1, 2, 0))
        L = find_normality_index(w, 4, 10)
        assert L == 2
        for d in range(2, 5):
            assert power_equality(w, L, d).equal

    def test_argument_validation(self):
        w = Weight((1, 2))
        with pytest.raises(InvalidArgumentError):
            find_normality_index(w, 1, 10)
        with pytest.raises(InvalidArgumentError):
            find_normality_index(w, 2, 0)

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_non_integer_bounds_rejected(self, value):
        w = Weight((1, 2))
        with pytest.raises(InvalidArgumentError, match="d_max must be an integer"):
            find_normality_index(w, value, 10)
        with pytest.raises(InvalidArgumentError, match="L_max must be an integer"):
            find_normality_index(w, 3, value)

    @pytest.mark.parametrize(
        "entries, d_max, L_max", [((2, 3, 5), 3, 33), ((1, 5, 2, 0), 4, 8), ((3, 1, 2), 3, 8)]
    )
    def test_points_walked_are_answered_from_the_cache(self, entries, d_max, L_max):
        w = Weight(entries)
        # The walk, as the find takes it: each L up to its first failing d.
        walked = []
        for L in range(1, L_max + 1):
            verdicts = []
            for d in range(2, d_max + 1):
                verdicts.append(uncached_power_equality(w, L, d))
                walked.append((L, d, verdicts[-1]))
                if not verdicts[-1].equal:
                    break
            if all(v.equal for v in verdicts):
                break
        _power_equality.cache_clear()
        index = find_normality_index(w, d_max, L_max)
        assert index == (walked[-1][0] if walked[-1][2].equal else None)
        assert _power_equality.cache_info().misses == len(walked)
        for L, d, verdict in walked:
            assert power_equality(w, L, d) == verdict, (L, d)
        info = _power_equality.cache_info()
        assert (info.hits, info.misses) == (len(walked), len(walked))


class TestSlicing:
    def test_examples(self):
        assert slicing_decomposition_check(Weight((1, 1, 2)), 2, 3)
        assert slicing_decomposition_check(Weight((10, 14, 35)), 70, 1)
        assert slicing_decomposition_check(Weight((1, 1, 3, 0)), 6, 2)

    def test_zero_threshold(self):
        assert slicing_decomposition_check(Weight((2, 3)), 0, 1)

    def test_argument_validation(self):
        with pytest.raises(InvalidArgumentError):
            slicing_decomposition_check(Weight((1,)), 2, 1)
        with pytest.raises(InvalidArgumentError):
            slicing_decomposition_check(Weight((1, 1)), 2, 3)
        with pytest.raises(InvalidArgumentError):
            slicing_decomposition_check(Weight((1, 1)), 2, 0)
        with pytest.raises(InvalidArgumentError):
            slicing_decomposition_check(Weight((1, 1, 0)), 2, 3)
        with pytest.raises(InvalidArgumentError):
            slicing_decomposition_check(Weight((1, 1)), -1, 1)

    @given(st.data(), st.integers(0, 15))
    @settings(max_examples=100, deadline=None)
    def test_holds_on_random_weights(self, data, d):
        w = data.draw(weights(max_dim=4, max_entry=8))
        if w.n < 2:
            return
        j = data.draw(st.integers(1, w.k))
        assert slicing_decomposition_check(w, d, j)


class TestExhaustiveSmallRange:
    """Exhaustive identities over a small box of weights and thresholds."""

    def _small_weights(self):
        for k in (1, 2, 3):
            for entries in itertools.product(range(1, 6), repeat=k):
                if math.gcd(*entries) == 1:
                    yield Weight(entries)

    def test_threshold_additivity_of_products(self):
        # Generators of thresholds d and e multiply into threshold d + e.
        for w in self._small_weights():
            for d, e in itertools.combinations_with_replacement(range(0, 7), 2):
                lhs = weighted_ideal_gens(w, d)
                rhs = weighted_ideal_gens(w, e)
                target = weighted_ideal_gens(w, d + e)
                for g in lhs.generators:
                    for h in rhs.generators:
                        assert contains_monomial(target, g * h)

    def test_membership_coherence_with_polynomials(self):
        w = Weight((1, 2, 3))
        for d in range(0, 10):
            ideal = weighted_ideal_gens(w, d)
            for exps in itertools.product(range(4), repeat=3):
                f = Polynomial.from_monomial(Monomial(exps))
                assert contains(ideal, f) == (monomial_weight(w, Monomial(exps)) >= d)
