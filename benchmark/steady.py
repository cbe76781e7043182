"""Do two sets of runs of the same code agree within the bounds of BENCHMARK.json?

    python3 benchmark/steady.py

Run from the root of a checkout.  Each set has RUNS runs per workload; set A
uses seeds 1..RUNS and set B seeds RUNS+1..2*RUNS, so seeds differ within and
between sets.  The two sets are
interleaved (A B, then B A, ...) and so are the workloads, so that both sets
meet the machine's slow and fast spells alike.  For every workload and
end-to-end metric it prints each set's median and spread (the distance
between the first and third quartile as a share of the median) and the
shift of B's median against A's in the metric's worse direction.  A metric
agrees when both spreads and the shift, either way, stay within its bound;
the share of failed queries must be exactly equal.  The report
is also written to .bench_out/steady.json.  Exit status 1 if anything
disagrees.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    sets = {name: {"A": [], "B": []} for name in names}
    for i in range(RUNS):
        for name in names:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                seed = 1 + i + (RUNS if side == "B" else 0)
                result = one_run(name, seed, spec["run_seconds"])
                sets[name][side].append(result)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"run {i + 1}/{RUNS} {name} {side} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} wall={result['wall_s']:.1f}s "
                      f"{values}", flush=True)
    report, agree = [], True
    for name in names:
        runs = sets[name]
        shares = {side: {r["failed"] / r["attempted"] for r in runs[side]} for side in "AB"}
        ok = shares["A"] == shares["B"] and len(shares["A"]) == 1
        ok &= all(r["correct"] for side in "AB" for r in runs[side])
        agree &= ok
        walls = [r["wall_s"] for side in "AB" for r in runs[side]]
        print(f"\n{name}: failed share {sorted(shares['A'] | shares['B'])}, all correct: {ok}, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [r["metrics"][key]["value"] for r in runs["A"]]
            b = [r["metrics"][key]["value"] for r in runs["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            shift = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
            spreads = (spread(a), spread(b))
            fine = abs(shift) <= bound and max(spreads) <= bound
            agree &= fine
            row = {"workload": name, "metric": key, "median_a": med_a, "median_b": med_b,
                   "spread_a": spreads[0], "spread_b": spreads[1], "worse_shift": shift,
                   "bound": bound, "agree": fine}
            report.append(row)
            print(f"  {key:15s} A {med_a:12.4f} ({spreads[0]:6.1%})  B {med_b:12.4f} "
                  f"({spreads[1]:6.1%})  worse by {shift:+6.1%}  bound {bound:.0%}  "
                  f"{'agree' if fine else 'DISAGREE'}")
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps({"runs": RUNS, "rows": report, "results": sets}, indent=1))
    print(f"\n{'all agree' if agree else 'some disagree'}; report in .bench_out/steady.json")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
