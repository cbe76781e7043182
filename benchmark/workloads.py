"""Seeded inputs for the four workloads.

Each function below returns one batch: the list of queries a worker answers in one
pass.  The same seed gives the same batch.  The seed moves only choices that
leave a pass's cost nearly unchanged (the order of the queries, the names of
the variables of the symbolic ideals, the twist a, the polynomials), so runs
on different seeds do comparable work.  Where the seed once drew what costs
the most (the family shapes, the symbolic ideals, the membership weights and
thresholds), the latency medians moved by up to a fifth between seeds.
"""

from __future__ import annotations

import math
import random

from reference import NormalityReference

# (weight, d_max, L_max): scanned in full by find_normality_index, and every
# (L, d) the scan walks is also asked alone.  L_max runs past the index.
SCANNED = [((2, 3, 5), 3, 33), ((1, 3, 5), 3, 18), ((10, 14, 35), 2, 146)]
# Weights whose full grids are too slow for one pass: fixed (L, d_max)
# points, every d in 2..d_max, dense below the index and through it.
SAMPLED = [((3, 4, 5), L, 3) for L in range(6, 49, 6)] + [((3, 4, 5), L, 2) for L in (54, 60, 61)]
SAMPLED += [((2, 5, 7), L, 3) for L in range(7, 64, 7)] + [((2, 5, 7), L, 2) for L in (70, 71)]
# (b, n, k): the weight (1, 1, b, ..., b, 0, ..., 0) with k - 2 entries b and
# n - k zeros, scanned with d_max 3 up to L_max = b + 2.  They are the same on
# every seed: their many small queries hold the median, which moved by a
# sixth between seeds when the seed picked the shapes.
FAMILY = [(2, 5, 4), (3, 4, 3), (4, 5, 3), (5, 4, 4)]


def family_weight(b: int, n: int, k: int) -> tuple[int, ...]:
    return (1, 1) + (b,) * (k - 2) + (0,) * (n - k)


def _scan_grid(ref: NormalityReference, d_max: int, L_max: int):
    """The (L, d) pairs find_normality_index visits, then every d past its index."""
    index = ref.index(d_max, L_max)
    grid = []
    for L in range(1, L_max + 1):
        for d in range(2, d_max + 1):
            grid.append((L, d))
            if (index is None or L < index) and not ref.equal(L, d):
                break
    return grid


def normality(seed: int, refs: dict) -> list[dict]:
    """power_equality over scan grids plus the scans themselves."""
    rng = random.Random(f"normality:{seed}")
    scans = SCANNED + [(family_weight(b, n, k), 3, b + 2) for b, n, k in FAMILY]
    groups = []
    for w, d_max, L_max in scans:
        ref = refs.setdefault(w, NormalityReference(w))
        group = [{"op": "find", "w": w, "d_max": d_max, "L_max": L_max}]
        group += [{"op": "eq", "w": w, "L": L, "d": d} for L, d in _scan_grid(ref, d_max, L_max)]
        groups.append(group)
    groups.append(
        [{"op": "eq", "w": w, "L": L, "d": d} for w, L, d_max in SAMPLED for d in range(2, d_max + 1)]
    )
    rng.shuffle(groups)
    return [q for group in groups for q in group]


# Criterion-4 family threshold ideals I_b of (1, 1, b, ..., b, 0, ...): all
# EQUAL, the same in every batch, t cycling through 2..4.
SYMBOLIC_FAMILY = [(b, n, k) for b in range(1, 6) for n in range(3, 6) for k in range(2, n + 1)]
# Random prime-radical ideals: one per (n, t, number of mixed generators)
# stratum in turn, so every batch has the same mix of shapes.  The ideals
# are drawn once, the same for every seed; the seed renames their variables.
# The median query falls where query time rises about 5 % per percentile.
SYMBOLIC_STRATA = [(n, t, m) for n in (3, 4, 5) for t in (2, 3, 4) for m in (1, 2, 3)]
SYMBOLIC_RANDOM = 27 * 36


def family_threshold_gens(b: int, n: int, k: int) -> list[tuple[int, ...]]:
    """Generators of weighted degree >= b for (1, 1, b, ..., b, 0, ...): x1^i x2^(b-i) and x3..xk."""
    gens = [(i, b - i) + (0,) * (n - 2) for i in range(b + 1)]
    gens += [tuple(int(j == i) for j in range(n)) for i in range(2, k)]
    return gens


def _random_primary(rng: random.Random, n: int, mixed: int) -> tuple[list, list[int]]:
    """Generators whose radical is (x_i : i in R), for a seeded R leaving some variable out."""
    radical = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
    outside = [i for i in range(1, n + 1) if i not in radical]
    gens = []
    for i in radical:
        gens.append(tuple(rng.randint(1, 4) if j == i else 0 for j in range(1, n + 1)))
    for _ in range(mixed):
        e = [0] * n
        for i in rng.sample(radical, rng.randint(1, len(radical))):
            e[i - 1] = rng.randint(1, 3)
        for i in rng.sample(outside, rng.randint(1, len(outside))):
            e[i - 1] = rng.randint(1, 12)
        gens.append(tuple(e))
    return gens, radical


def symbolic(seed: int) -> list[dict]:
    """as_primary then symbolic_equals_ordinary on prime-radical ideals."""
    shapes = random.Random("symbolic")
    rng = random.Random(f"symbolic:{seed}")
    queries = [
        {"gens": family_threshold_gens(b, n, k), "radical": list(range(1, k + 1)), "t": 2 + i % 3}
        for i, (b, n, k) in enumerate(SYMBOLIC_FAMILY)
    ]
    for i in range(SYMBOLIC_RANDOM):
        n, t, mixed = SYMBOLIC_STRATA[i % len(SYMBOLIC_STRATA)]
        gens, radical = _random_primary(shapes, n, mixed)
        perm = rng.sample(range(n), n)  # new variable j is old variable perm[j]
        gens = [tuple(g[perm[j]] for j in range(n)) for g in gens]
        radical = sorted(perm.index(v - 1) + 1 for v in radical)
        queries.append({"gens": gens, "radical": radical, "t": t})
    rng.shuffle(queries)
    return queries


MEMBERSHIP_DISTINCT = 168
MEMBERSHIP_REPEATED = 72
# Generator counts the thresholds aim at, by number of positive entries k.
# Enumeration walks the last coordinate one step at a time, so with k = 2 it
# costs about d^2 / (a1 * a2) for about d generators: kept to hundreds there.
MEMBERSHIP_TARGET_GENS = {2: (200, 400), 3: (1500, 3000), 4: (1500, 3000), 5: (1500, 3000)}


def _threshold_for(a: tuple[int, ...], gens: int) -> int:
    """A threshold whose ideal has about ``gens`` minimal generators.

    The minimal generators sit in a shell of width about the mean entry above
    the hyperplane of weight d, which holds about
    d^(k-1) / ((k-1)! * prod(a)) * mean(a) lattice points.
    """
    k = len(a)
    return round((gens * math.factorial(k - 1) * math.prod(a) * k / sum(a)) ** (1 / (k - 1)))


def _vector_of_weight(rng: random.Random, a: tuple[int, ...], target: int) -> list[int]:
    """Exponents on the positive coordinates with weight in [target, target + a_last)."""
    order = list(range(len(a)))
    rng.shuffle(order)
    s = [0] * len(a)
    remaining = max(target, 0)
    for i in order[:-1]:
        s[i] = rng.randint(0, remaining // a[i])
        remaining -= s[i] * a[i]
    last = order[-1]
    s[last] = -(-remaining // a[last])
    return s


def _format_term(c, exps) -> str:
    body = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps, 1) if e)
    return f"{c}*{body}" if body else c


def membership(seed: int) -> list[dict]:
    """Polynomial text, a weight and a threshold; membership asked three ways.

    The (weight, threshold) pairs and the repeats are drawn once, the same
    for every seed, since enumerating their generators is most of the cost;
    the seed draws the polynomials and the order.
    """
    shapes = random.Random("membership")
    rng = random.Random(f"membership:{seed}")
    pairs = []
    for i in range(MEMBERSHIP_DISTINCT):
        k = 2 + i % 4
        n = min(6, k + shapes.randint(0, 2))
        while True:
            a = tuple(shapes.randint(1, 6) for _ in range(k))
            if math.gcd(*a) == 1:
                break
        d = _threshold_for(a, shapes.randint(*MEMBERSHIP_TARGET_GENS[k]))
        pairs.append((a + (0,) * (n - k), d))
    pairs += [shapes.choice(pairs) for _ in range(MEMBERSHIP_REPEATED)]
    rng.shuffle(pairs)
    queries = []
    for w, d in pairs:
        k = len([a for a in w if a])
        monos = set()
        while len(monos) < rng.randint(2, 6):
            exps = _vector_of_weight(rng, w[:k], d + rng.randint(-2, 3))
            monos.add(tuple(exps) + tuple(rng.randint(0, 3) for _ in range(len(w) - k)))
        terms = []
        for exps in sorted(monos):
            c = rng.choice(["1", "2", "3/2", "5", "7/3", "11"])
            terms.append(("- " if rng.random() < 0.4 else "+ ") + _format_term(c, exps))
        text = " ".join(terms).lstrip("+ ")
        queries.append({"w": w, "d": d, "text": text, "terms": sorted(monos)})
    return queries


TERMINAL_ORDER = 100003  # prime, so every twist a in 2..r-2 is a unit
LARGE_PRIMES = (30011, 30013, 30029, 30047, 30059)
# Radical (x1, x2, x3), outside x4, x5; a seeded permutation of the
# variables keeps the cost and changes the input.
SYMBOLIC_CLI_GENS = [(6, 0, 0, 0, 0), (0, 5, 0, 0, 0), (0, 0, 4, 0, 0), (2, 0, 0, 12, 0),
                     (0, 1, 1, 0, 11), (1, 1, 0, 3, 7)]
PUSH_WEIGHT, PUSH_TERMS = (2, 3, 5, 7), 3000


def monomial_text(exps) -> str:
    return "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps, 1) if e) or "1"


def cli(seed: int) -> list[dict]:
    """`python -m wblowup.cli ... --json` commands, each well above start-up cost."""
    rng = random.Random(f"cli:{seed}")
    r = TERMINAL_ORDER
    a = rng.randint(2, r - 2)
    big = rng.choice(LARGE_PRIMES)
    perm = list(range(5))
    rng.shuffle(perm)
    sym_gens = [tuple(e[perm[i]] for i in range(5)) for e in SYMBOLIC_CLI_GENS]
    radical = sorted(perm.index(i) + 1 for i in range(3))
    monos = set()
    d = 60
    while len(monos) < PUSH_TERMS:
        monos.add(tuple(_vector_of_weight(rng, PUSH_WEIGHT, d + rng.randint(0, 40))))
    if rng.random() < 0.5:  # about half the pushes are not members
        monos.pop()
        monos.add(tuple(_vector_of_weight(rng, PUSH_WEIGHT, d - 10)))
    poly = " + ".join(monomial_text(e) for e in sorted(monos))
    commands = [
        {"args": ["terminal", "--r", str(r), "--twists", f"{a},{r - a},1"], "twists": [a, r - a, 1]},
        {"args": ["terminal", "--r", str(r), "--twists", "1,2,3"], "twists": [1, 2, 3]},
        {"args": ["terminal", "--weight", f"1,1,{big},{big}", "--n", "5"],
         "weight": (1, 1, big, big, 0)},
        {"args": ["profile", "--n", "12", "--r", "10", "--b", "2003"], "n": 12, "r": 10, "b": 2003},
        {"args": ["ideal", "--weight", "1,1,1,1,1", "--n", "5", "--d", "30"]},
        {"args": ["normality", "--weight", "3,4,5", "--n", "3", "--L", "54", "--d", "3"],
         "w": (3, 4, 5), "L": 54, "d": 3},
        {"args": ["normality", "--weight", "10,14,35", "--n", "3", "--d-max", "2", "--L-max", "150"],
         "w": (10, 14, 35), "d_max": 2, "L_max": 150},
        {"args": ["symbolic", "--gens", ",".join(monomial_text(e) for e in sym_gens), "--n", "5",
                  "--t", "4"], "gens": sym_gens, "radical": radical, "t": 4},
        {"args": ["push", "--weight", ",".join(map(str, PUSH_WEIGHT)), "--n", "4", "--d", str(d), poly],
         "w": PUSH_WEIGHT, "d": d, "terms": sorted(monos)},
    ]
    rng.shuffle(commands)
    return commands
