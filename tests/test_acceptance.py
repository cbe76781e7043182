"""Acceptance gate: nine timed end-to-end criteria.

Each test prints one pass/fail line (bypassing capture) with its elapsed
time and budget, then asserts both the verdict and the budget.  Everything
is exact integer or rational arithmetic; there are no tolerances.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from oracles import (
    brute_box_gens,
    brute_pushforward_membership,
    slicing_decomposition_check,
)
from wblowup.errors import InvalidArgumentError, RadicalNotPrimeError
from wblowup.charts import (
    CyclicQuotientType,
    cartier_index,
    is_terminal,
)
from wblowup.contraction import contraction_profile, validate_profile
from wblowup.monomials import (
    Monomial,
    Polynomial,
    contains,
    contains_monomial,
    ideal_power,
    minimalize,
)
from wblowup.symbolic import as_primary, symbolic_equals_ordinary, symbolic_power
from wblowup.weights import (
    Weight,
    _minimal_generator_exponents,
    monomial_weight,
    power_equality,
    sigma_wt,
    weighted_ideal_gens,
)


def _report(capsys, label: str, ok: bool, elapsed: float, limit: float) -> None:
    in_budget = elapsed < limit
    status = "PASS" if ok and in_budget else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] {label}: {status} ({elapsed:.2f}s, budget {limit:g}s)")
    assert ok, f"{label} produced a wrong value"
    assert in_budget, f"{label} took {elapsed:.2f}s, budget {limit:g}s"


def _family_weight(b: int, n: int, k: int) -> Weight:
    return Weight((1, 1) + (b,) * (k - 2) + (0,) * (n - k))


def test_criterion_1_heavy_weight_regression(capsys):
    """Frozen three-variable example: degree, power gap, witness, Cartier index."""
    start = time.perf_counter()
    w = Weight((10, 14, 35))
    witness_monomial = Monomial((5, 4, 1))
    ok = monomial_weight(w, witness_monomial) == 141
    verdict = power_equality(w, 70, 2)
    ok = ok and not verdict.equal
    ok = ok and monomial_weight(w, verdict.witness) >= 140
    square = ideal_power(weighted_ideal_gens(w, 70), 2)
    ok = ok and not contains_monomial(square, verdict.witness)
    ok = ok and cartier_index(w) == 70
    _report(capsys, "criterion 1 heavy-weight regression", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_family_power_equality(capsys):
    """Powers of the threshold-b ideal recover every scaled threshold."""
    start = time.perf_counter()
    failures = []
    cases = 0
    for b in range(1, 6):
        for n in range(3, 7):
            for k in range(2, n + 1):
                w = _family_weight(b, n, k)
                for d in (2, 3, 4):
                    cases += 1
                    if not power_equality(w, b, d).equal:
                        failures.append((b, n, k, d))
    ok = not failures and cases == 210
    _report(capsys, "criterion 2 family power equality", ok, time.perf_counter() - start, 60.0)


def test_criterion_3_membership_triangle(capsys):
    """Three membership routes agree on random weighted instances."""
    start = time.perf_counter()
    rng = random.Random(4101)
    agreements = 0
    members = 0
    non_members = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        entries = [rng.randint(1, 12) for _ in range(k)]
        if math.gcd(*entries) != 1:
            entries[rng.randrange(k)] = 1
        w = Weight(tuple(entries) + (0,) * (n - k))
        terms = []
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 6) for _ in range(n))
            coeff = Fraction(rng.choice([c for c in range(-4, 5) if c]), rng.randint(1, 6))
            terms.append((Monomial(exps), coeff))
        f = Polynomial.from_terms(terms, n)
        if f.is_zero():
            f = Polynomial.from_monomial(Monomial(tuple(rng.randint(0, 6) for _ in range(n))))
        wt = sigma_wt(w, f)
        if rng.random() < 0.5:
            d = max(0, min(25, wt + rng.randint(-2, 2)))
        else:
            d = rng.randint(0, 25)
        by_weight = wt >= d
        by_generators = contains(weighted_ideal_gens(w, d), f)
        by_charts = brute_pushforward_membership(w, d, f)
        if by_weight == by_generators == by_charts:
            agreements += 1
        if by_weight:
            members += 1
        else:
            non_members += 1
    ok = agreements == 600 and members >= 50 and non_members >= 50
    _report(capsys, "criterion 3 membership triangle", ok, time.perf_counter() - start, 30.0)


def test_criterion_4_symbolic_equals_ordinary(capsys):
    """Symbolic powers of family threshold ideals match ordinary powers."""
    start = time.perf_counter()
    failures = []
    for b in range(1, 6):
        for n in range(3, 7):
            for k in range(2, n + 1):
                w = _family_weight(b, n, k)
                primary = as_primary(weighted_ideal_gens(w, b))
                for t in (2, 3, 4):
                    if not symbolic_equals_ordinary(primary, t).equal:
                        failures.append((b, n, k, t))
    rng = random.Random(9090)
    inclusion_checked = 0
    while inclusion_checked < 60:
        n = rng.randint(1, 3)
        gens = [
            Monomial(tuple(rng.randint(0, 3) for _ in range(n)))
            for _ in range(rng.randint(1, 3))
        ]
        ideal = minimalize(gens, n)
        try:
            primary = as_primary(ideal)
        except (RadicalNotPrimeError, InvalidArgumentError):
            continue
        t = rng.randint(1, 3)
        sym = symbolic_power(primary, t)
        if not all(
            contains_monomial(sym, g) for g in ideal_power(ideal, t).generators
        ):
            failures.append(("inclusion", ideal.generators, t))
        inclusion_checked += 1
    ok = not failures
    _report(capsys, "criterion 4 symbolic equals ordinary", ok, time.perf_counter() - start, 60.0)


def test_criterion_5_terminal_quotient_family(capsys):
    """Reid-Tai verdicts for the resolving quotient family and its boundary."""
    start = time.perf_counter()
    failures = []
    for b in range(2, 51):
        for n in range(3, 9):
            q = CyclicQuotientType(b, (b - 1, b - 1, 1) + (0,) * (n - 3))
            if not is_terminal(q):
                failures.append((b, n))
    boundary = CyclicQuotientType(2, (1, 1))
    if is_terminal(boundary):
        failures.append("boundary")
    ok = not failures
    _report(capsys, "criterion 5 terminal quotient family", ok, time.perf_counter() - start, 5.0)


def test_criterion_6_contraction_numerology(capsys):
    """Every profile in range validates and satisfies the exact identities."""
    start = time.perf_counter()
    failures = []
    profiles = 0
    for n in range(2, 11):
        for r in range(0, n - 1):
            for b in range(1, 7):
                profiles += 1
                p = contraction_profile(n, r, b)
                report = validate_profile(p)
                good = (
                    report.all_pass
                    and p.b * p.tau == p.r * p.b + 1 == p.discrepancy
                    and p.center_codim == p.r + 2
                    and p.fiber_dim == p.r + 1
                )
                if not good:
                    failures.append((n, r, b))
    ok = not failures and profiles == 270
    _report(capsys, "criterion 6 contraction numerology", ok, time.perf_counter() - start, 5.0)


def test_criterion_7_slicing_decomposition(capsys):
    """Both slicing pieces match on the whole family grid."""
    start = time.perf_counter()
    failures = []
    checks = 0
    for b in range(1, 5):
        for n in range(2, 7):
            for k in range(2, n + 1):
                w = _family_weight(b, n, k)
                for d in range(0, 3 * b + 1):
                    for j in range(1, k + 1):
                        checks += 1
                        if not slicing_decomposition_check(w, d, j):
                            failures.append((b, n, k, d, j))
    ok = not failures and checks >= 1000
    _report(capsys, "criterion 7 slicing decomposition", ok, time.perf_counter() - start, 30.0)


def test_criterion_8_generator_enumeration_oracle(capsys):
    """Exhaustive box enumeration reproduces every minimal generator set."""
    start = time.perf_counter()
    failures = []
    instances = []
    for a in (1,):
        for d in (0, 1, 5, 17, 40):
            instances.append(((a,), d))
    for a1 in range(1, 13):
        for a2 in range(1, 13):
            if math.gcd(a1, a2) == 1:
                for d in (0, 1, 5, 17, 40):
                    instances.append(((a1, a2), d))
    rng = random.Random(20260819)
    added = 0
    while added < 150:
        entries = tuple(rng.randint(1, 12) for _ in range(3))
        if math.gcd(*entries) != 1:
            continue
        instances.append((entries, rng.randint(0, 40)))
        added += 1
    instances += [
        ((1, 1, 1), 40),
        ((1, 2, 3), 40),
        ((5, 7, 11), 40),
        ((12, 11, 7), 40),
    ]
    for entries, d in instances:
        w = Weight(entries)
        fast = {g.exponents for g in weighted_ideal_gens(w, d).generators}
        slow = brute_box_gens(entries, d)
        if fast != slow:
            failures.append((entries, d))
    ok = not failures and len(instances) >= 500
    _report(
        capsys,
        "criterion 8 generator enumeration oracle",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_9_entry_order_keeps_enumeration_cost(capsys):
    """Permuting a skewed weight permutes its threshold generators, each order in bounded time."""
    failures = []
    slowest = 0.0
    heaviest_first = None
    for entries in ((1, 10000, 10001), (10001, 1, 10000), (10000, 10001, 1)):
        # The uncached kernel, so no earlier query can have paid for this one.
        start = time.perf_counter()
        exps = _minimal_generator_exponents(entries, 10**6)
        slowest = max(slowest, time.perf_counter() - start)
        keys = [(sum(e), tuple(-x for x in e)) for e in exps]
        perm = sorted(range(3), key=entries.__getitem__, reverse=True)
        permuted = {tuple(e[i] for i in perm) for e in exps}
        heaviest_first = heaviest_first or permuted
        if len(exps) != 5151 or keys != sorted(set(keys)) or permuted != heaviest_first:
            failures.append(entries)
    _report(capsys, "criterion 9 entry order", not failures, slowest, 1.0)
