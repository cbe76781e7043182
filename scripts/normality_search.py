"""Scan weights for their normality index.

For each weight this prints the smallest threshold L whose d-th powers
recover every scaled threshold up to d_max, or a dash when the scan is
exhausted.  The interesting column is the ratio against the Cartier index:
coprime heavy weights tend to certify only at a multiple of it, while the
(1, 1, b, ..., b) family certifies already at L = b.

Run:

    python3 scripts/normality_search.py
    python3 scripts/normality_search.py --weights 10,14,35 --n 3 --L-max 300
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wblowup.charts import cartier_index
from wblowup.parsing import parse_weight
from wblowup.weights import Weight, find_normality_index


def _default_weights() -> list[Weight]:
    family = [
        Weight((1, 1) + (b,) * r + (0,) * (5 - 2 - r))
        for b in (2, 3, 4, 5)
        for r in (1, 2, 3)
    ]
    coprime = [
        Weight((1, 2, 3)),
        Weight((2, 3, 5)),
        Weight((3, 4, 5)),
        Weight((2, 5, 7)),
        Weight((1, 1, 3)),
        Weight((1, 3, 5)),
    ]
    return family + coprime


def run(weights: list[Weight], d_max: int, L_max: int) -> None:
    header = f"{'weight':>18}  {'cartier':>7}  {'index':>6}  {'index/cartier':>13}"
    print(header)
    print("-" * len(header))
    for w in weights:
        cartier = cartier_index(w)
        index = find_normality_index(w, d_max, L_max)
        if index is None:
            rendered, ratio = "-", "-"
        else:
            rendered = str(index)
            ratio = str(Fraction(index, cartier))
        label = "(" + ",".join(str(a) for a in w.entries) + ")"
        print(f"{label:>18}  {cartier:>7}  {rendered:>6}  {ratio:>13}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d-max", type=int, default=3, dest="d_max")
    parser.add_argument("--L-max", type=int, default=60, dest="L_max")
    parser.add_argument("--weights", help="single weight to scan, e.g. 10,14,35")
    parser.add_argument("--n", type=int, help="ambient dimension for --weights")
    args = parser.parse_args(argv)
    if args.weights is not None:
        if args.n is None:
            parser.error("--n is required with --weights")
        weights = [parse_weight(args.weights, args.n)]
    else:
        weights = _default_weights()
    run(weights, args.d_max, args.L_max)
    return 0


if __name__ == "__main__":
    sys.exit(main())
