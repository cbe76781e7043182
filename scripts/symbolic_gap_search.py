"""Random search for ideals whose symbolic power strictly exceeds the ordinary one.

Draws random monomial ideals with a prime radical, compares symbolic and
ordinary t-th powers, and prints each strict gap found with its witness.
Threshold ideals of weight vectors never show up here; the gaps come from
ideals with embedded structure, e.g. (x1^2, x1*x2).

Run:

    python3 scripts/symbolic_gap_search.py
    python3 scripts/symbolic_gap_search.py --trials 2000 --seed 7 --t 3
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wblowup.errors import InvalidArgumentError, RadicalNotPrimeError
from wblowup.monomials import Monomial, minimalize
from wblowup.parsing import format_monomial
from wblowup.symbolic import as_primary, symbolic_equals_ordinary


MAX_GENERATORS = 3


def run(seed: int, trials: int, n: int, max_exponent: int, t: int) -> int:
    rng = random.Random(seed)
    found = 0
    examined = 0
    for _ in range(trials):
        gens = [
            Monomial(tuple(rng.randint(0, max_exponent) for _ in range(n)))
            for _ in range(rng.randint(1, MAX_GENERATORS))
        ]
        ideal = minimalize(gens, n)
        try:
            primary = as_primary(ideal)
        except (RadicalNotPrimeError, InvalidArgumentError):
            continue
        examined += 1
        verdict = symbolic_equals_ordinary(primary, t)
        if not verdict.equal:
            found += 1
            rendered = ", ".join(format_monomial(g) for g in ideal.generators)
            print(f"gap: ideal ({rendered}), t = {t}, witness {format_monomial(verdict.witness)}")
    print(f"{found} strict gaps in {examined} prime-radical ideals ({trials} trials, seed {seed})")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--t", type=int, default=2)
    parser.add_argument("--max-exponent", type=int, default=3, dest="max_exponent")
    args = parser.parse_args(argv)
    run(args.seed, args.trials, args.n, args.max_exponent, args.t)
    return 0


if __name__ == "__main__":
    sys.exit(main())
