"""Tabulate contraction profiles over a parameter box.

Prints one row per (n, r, b) with the nef value, discrepancy, Cartier
index and terminality, and re-validates every invariant on the way.  The
table makes the linear growth of the discrepancy in b visible at fixed r.

Run:

    python3 scripts/profile_sweep.py
    python3 scripts/profile_sweep.py --n-max 8 --b-max 4
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wblowup.charts import cartier_index
from wblowup.contraction import contraction_profile, validate_profile


def run(n_max: int, b_max: int) -> None:
    header = (
        f"{'n':>3} {'r':>3} {'b':>3}  {'tau':>6} {'codim':>5} {'fiber':>5} "
        f"{'discrep':>7} {'cartier':>7}  {'terminal':>8}  {'checks':>6}"
    )
    print(header)
    print("-" * len(header))
    for n in range(2, n_max + 1):
        for r in range(0, n - 1):
            for b in range(1, b_max + 1):
                p = contraction_profile(n, r, b)
                report = validate_profile(p)
                status = "ok" if report.all_pass else "FAIL"
                print(
                    f"{n:>3} {r:>3} {b:>3}  {str(p.tau):>6} {p.center_codim:>5} "
                    f"{p.fiber_dim:>5} {p.discrepancy:>7} "
                    f"{cartier_index(p.weight):>7}  {str(p.terminal):>8}  {status:>6}"
                )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=6, dest="n_max")
    parser.add_argument("--b-max", type=int, default=3, dest="b_max")
    args = parser.parse_args(argv)
    run(args.n_max, args.b_max)
    return 0


if __name__ == "__main__":
    sys.exit(main())
