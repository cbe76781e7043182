"""Benchmark of wblowup: one workload, one seed, one run.

    python3 benchmark/run.py --workload normality --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  The program is imported from the
checkout's ``src/``; nothing is installed.  One caller in one process sends
the next query only after the last one returned (a closed loop).

A run answers whole passes of the seeded batch, each pass in a fresh worker
interpreter (so the program's caches start empty and every pass does the same
work), until another pass would overrun ``--seconds``.  Between passes it
times fresh interpreters for ``setup_s`` and a fixed loop for the machine's
speed.  Every answer is then checked against computations made apart
(``reference.py``).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and the end-to-end metrics, or with
``--trace 1`` the per-layer metrics, named and with units as in
``BENCHMARK.json``.  Earlier lines summarise the run for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from machine import CpuPicker, calibration_ms, peak_rss_kb, reference_loop_ms, scaled  # noqa: E402

WORKLOADS = ("normality", "symbolic", "membership", "cli")
SETUP_SAMPLES_MIN = 15
# setup_s reads as it would on a machine where a bare interpreter starts in
# this long (see end_to_end).
NOMINAL_INTERPRETER_S = 0.05
WORKER_TIMEOUT_S = 120
OUT_DIR = ".bench_out"
DOC_KEYS = {"schema_version", "command", "inputs", "result", "witnesses", "checks"}


class Run:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.normality_refs: dict = {}
        if workload == "normality":
            self.batch = workloads.normality(seed, self.normality_refs)
        else:
            self.batch = getattr(workloads, workload)(seed)
        self.setup_module = "wblowup.cli" if workload == "cli" else "wblowup"
        self.checked: dict = {}
        # Command outputs go to files and are judged after the run, so that
        # this process never holds one while children start: its peak is
        # the floor of every later child's figure (see end_to_end).
        self.out_dir: Path | None = None
        self.outputs = 0
        self.cpus = CpuPicker()

    def _pin(self) -> float:
        """Start the next child on the CPU that is fastest now; returns its calibration time.

        Children inherit this process's CPU affinity, so it is set here.
        """
        return self.cpus.move_to_fastest()

    # -- set-up ----------------------------------------------------------

    def _time_process(self, code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=self.env, cwd=self.root)
        return time.perf_counter() - start

    def sample_setup(self, samples: list) -> None:
        """A fresh interpreter, bare, then one importing the program, back to back.

        Appends (bare seconds, importing seconds, calibration ms).
        """
        cal = self._pin()
        bare = self._time_process("pass")
        samples.append((bare, self._time_process(f"import {self.setup_module}"), cal))

    # -- passes ----------------------------------------------------------

    def run_pass(self, traced: bool) -> dict:
        if self.workload == "cli":
            return self._cli_pass(traced)
        job = {"workload": self.workload, "queries": self.batch, "trace": traced}
        self.cpus.release()  # the worker moves itself as it goes
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
            env=self.env,
            cwd=self.root,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout)

    def _cli_pass(self, traced: bool) -> dict:
        seconds, cal_ms, answers, tally = [], [], [], {}
        stdout_bytes = 0
        if self.out_dir is None:
            (self.root / OUT_DIR).mkdir(exist_ok=True)
            self.out_dir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.root / OUT_DIR))
        for command in self.batch:
            self.outputs += 1
            path = self.out_dir / f"{self.outputs}.json"
            if traced:
                argv = [sys.executable, str(HERE / "worker.py"), "--cli", *command["args"], "--json"]
            else:
                argv = [sys.executable, "-m", "wblowup.cli", *command["args"], "--json"]
            cal = self._pin()
            with open(path, "wb") as out:
                start = time.perf_counter()
                proc = subprocess.run(argv, stdout=out, stderr=subprocess.PIPE,
                                      timeout=WORKER_TIMEOUT_S, env=self.env, cwd=self.root)
                seconds.append(time.perf_counter() - start)
            # A command runs up to a second, and the CPU may change speed
            # meanwhile: calibrate on it again right after, and take the mean.
            cal_ms.append((cal + calibration_ms()) / 2)
            if proc.returncode == 0:
                answers.append({"stdout_file": str(path)})
            else:
                answers.append({"error": f"exit status {proc.returncode}"})
            stdout_bytes += path.stat().st_size
            if traced:
                lines = proc.stderr.decode().strip().splitlines()
                for key, value in json.loads(lines[-1]).items():
                    tally[key] = tally.get(key, 0) + value
        out = {"seconds": seconds, "cal_ms": cal_ms, "answers": answers, "loop_s": sum(seconds)}
        if traced:
            tally["cli.stdout_bytes"] = stdout_bytes
            out["tally"] = tally
        return out

    # -- checks ----------------------------------------------------------

    def check(self, i: int, answer) -> str:
        """"ok", "error" (the program raised or exited non-zero) or "wrong".

        Answers repeat across passes, so each distinct one is judged once.
        """
        if isinstance(answer, dict) and "error" in answer:
            return "error"
        if isinstance(answer, dict) and "stdout_file" in answer:
            answer = {"stdout": Path(answer["stdout_file"]).read_bytes()}
        key = (i, repr(answer))
        if key not in self.checked:
            try:
                ok = CHECKS[self.workload](self, self.batch[i], answer)
            except (KeyError, TypeError, ValueError, IndexError):
                ok = False  # a malformed answer is a wrong one
            self.checked[key] = "ok" if ok else "wrong"
        return self.checked[key]

    def normality_ref(self, w) -> reference.NormalityReference:
        return self.normality_refs.setdefault(tuple(w), reference.NormalityReference(tuple(w)))

    def check_normality(self, q: dict, answer) -> bool:
        ref = self.normality_ref(q["w"])
        if q["op"] == "find":
            return answer == ref.index(q["d_max"], q["L_max"])
        equal, witness = answer
        if equal:
            return ref.equal(q["L"], q["d"])
        return witness is not None and ref.witness_ok(q["L"], q["d"], tuple(witness))

    def check_symbolic(self, q: dict, answer) -> bool:
        radical_vars, equal, witness = answer
        gens = [tuple(g) for g in q["gens"]]
        products, symbolic = reference.symbolic_reference(gens, set(q["radical"]), q["t"])
        if radical_vars != q["radical"]:
            return False
        if equal:
            return all(reference.in_ideal(products, g) for g in symbolic)
        return (
            witness is not None
            and reference.in_ideal(symbolic, tuple(witness))
            and not reference.in_ideal(products, tuple(witness))
        )

    def check_membership(self, q: dict, answer) -> bool:
        terms, *routes = answer
        expected = min(reference.weight_of(q["w"], m) for m in q["terms"]) >= q["d"]
        return terms == sorted(list(m) for m in q["terms"]) and routes == [expected] * 3

    def check_cli(self, q: dict, answer) -> bool:
        doc = json.loads(answer["stdout"].decode())
        if set(doc) != DOC_KEYS or doc["schema_version"] != 1 or doc["command"] != q["args"][0]:
            return False
        result = doc["result"]
        kind = q["args"][0]
        if kind == "terminal" and "twists" in q:
            r = int(q["args"][2])
            expected = reference.reid_tai_terminal(r, q["twists"])
            if reference.morrison_stevens(r, q["twists"]) and not expected:
                return False
            return result["mode"] == "quotient" and result["terminal"] == expected
        if kind == "terminal":
            quotients = reference.chart_quotients(q["weight"])
            verdicts = [reference.reid_tai_terminal(r, tw) for r, tw in quotients]
            charts = [
                {"index": i, "order": r, "terminal": v}
                for i, ((r, _), v) in enumerate(zip(quotients, verdicts), 1)
            ]
            return result == {"mode": "blowup", "terminal": all(verdicts), "charts": charts}
        if kind == "profile":
            n, r, b = q["n"], q["r"], q["b"]
            weight = (1, 1) + (b,) * r + (0,) * (n - r - 2)
            terminal = all(reference.reid_tai_terminal(o, tw) for o, tw in reference.chart_quotients(weight))
            return (
                Fraction(result["tau"]) == r + Fraction(1, b)
                and result["weight"] == list(weight)
                and result["center_codim"] == r + 2
                and result["fiber_dim"] == r + 1
                and result["discrepancy"] == r * b + 1
                and result["cartier_index"] == lcm(*weight[: r + 2])
                and result["terminal"] is terminal is True
                and result["all_checks_pass"] is True
                and all(c["passed"] for c in doc["checks"])
            )
        if kind == "ideal":
            gens = {reference.parse_monomial_text(g, 5) for g in result["generators"]}
            count = comb(30 + 4, 4)
            return (
                result["count"] == count == len(result["generators"]) == len(gens)
                and all(sum(g) == 30 for g in gens)
            )
        if kind == "normality":
            ref = self.normality_ref(q["w"])
            if "L" in q:
                equal = ref.equal(q["L"], q["d"])
                return result == {"mode": "check", "verdict": "EQUAL" if equal else "NOT_EQUAL"} and (
                    equal or ref.witness_ok(q["L"], q["d"], reference.parse_monomial_text(doc["witnesses"][0], 3))
                )
            return result == {"mode": "find", "normality_index": ref.index(q["d_max"], q["L_max"])}
        if kind == "symbolic":
            products, symbolic = reference.symbolic_reference(q["gens"], set(q["radical"]), q["t"])
            equal = all(reference.in_ideal(products, g) for g in symbolic)
            listed = {reference.parse_monomial_text(g, 5) for g in result["symbolic_generators"]}
            if result["radical_vars"] != q["radical"] or listed != symbolic:
                return False
            if equal:
                return result["verdict"] == "EQUAL" and doc["witnesses"] == []
            witness = reference.parse_monomial_text(doc["witnesses"][0], 5)
            return result["verdict"] == "NOT_EQUAL" and not reference.in_ideal(products, witness) and (
                reference.in_ideal(symbolic, witness)
            )
        if kind == "push":
            expected = min(reference.weight_of(q["w"], m) for m in q["terms"]) >= q["d"]
            return result == {"member": expected}
        return False


CHECKS = {
    "normality": Run.check_normality,
    "symbolic": Run.check_symbolic,
    "membership": Run.check_membership,
    "cli": Run.check_cli,
}


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Run whole passes until another would overrun; in trace mode alternate plain and traced."""
    setup, loops = [], []
    # Writes the bytecode cache before anything is timed.
    run._time_process(f"import {run.setup_module}")
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        tracing = trace and len(plain) > len(traced)
        result = run.run_pass(tracing)
        (traced if tracing else plain).append(result)
        setup_start = time.perf_counter()
        run.sample_setup(setup)
        owed = max(SETUP_SAMPLES_MIN - len(setup), 0) * (time.perf_counter() - setup_start)
        loops.append(reference_loop_ms())
        elapsed = time.perf_counter() - start
        passes = len(plain) + len(traced)
        if (passes >= (2 if trace else 1)) and elapsed + elapsed / passes + owed > seconds:
            break
    while len(setup) < SETUP_SAMPLES_MIN:
        run.sample_setup(setup)
    return {"plain": plain, "traced": traced, "setup": setup, "loops": loops,
            "own_peak_kb": peak_rss_kb()}


def setup_ratio(m: dict) -> float:
    """Median over the run's samples of importing time over bare start-up time."""
    return statistics.median(imported / bare for bare, imported, _ in m["setup"])


def end_to_end(run: Run, m: dict) -> dict:
    """Each query's time is its median scaled time over the run's passes.

    A time is scaled by the calibration kernel timed on the same CPU just
    before it (machine.py), which takes out most of the machine's drift.
    The work of a query is the same in every pass, so the median over
    passes estimates its cost; a slow spell during one pass, or a
    calibration read in one, does not count.  The best scaled time of
    passes spread wider between runs (8-15 % against 2-11 % over five
    seeds): it picks the pass whose calibration happened to read slow.

    A cli command is the exception and counts its best pass.  It is one
    subprocess of up to a second, and the machine may change speed while
    it runs; the best pass is one where it did not.  Over five seeds, with
    the mean of calibrations before and after each command, the best pass
    spread 3-9 % between runs and the median 7-15 %.

    setup_s is the median ratio of an importing start to a bare one timed
    just before it, times NOMINAL_INTERPRETER_S.  Process start-up is mostly
    the kernel's work, which the calibration kernel does not track; a bare
    start does, and no change to the program moves it.
    """
    passes = m["plain"]
    pick = min if run.workload == "cli" else statistics.median
    per_query = [
        pick(scaled(t, c) for t, c in zip(times, cals))
        for times, cals in zip(zip(*(p["seconds"] for p in passes)), zip(*(p["cal_ms"] for p in passes)))
    ]
    if run.workload == "cli":
        # The largest child.  A child's ru_maxrss starts from this process's
        # high-water mark at its start (exec carries it over), so the figure
        # is the children's own only while it stays above that floor; main()
        # prints both.
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = max(p["peak_rss_kb"] for p in passes)
    return {
        "queries_per_s": len(per_query) / sum(per_query),
        "latency_p50_ms": statistics.median(per_query) * 1e3,
        "latency_p90_ms": statistics.quantiles(per_query, n=10)[8] * 1e3,
        "setup_s": NOMINAL_INTERPRETER_S * setup_ratio(m),
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer(run: Run, m: dict, names: list[str]) -> dict:
    """One batch's worth: counts of the first traced pass, self times as medians over traced passes."""
    tallies = [p["tally"] for p in m["traced"]]
    values = {}
    for name in names:
        samples = [t.get(name, 0) for t in tallies]
        values[name] = _median(samples) if name.endswith("_s") else samples[0]
    values["setup.interpreter_s"] = statistics.median(scaled(bare, cal) for bare, _, cal in m["setup"])
    values["setup.import_s"] = NOMINAL_INTERPRETER_S * (setup_ratio(m) - 1)
    values["machine.reference_loop_ms"] = statistics.median(m["loops"])
    values["trace.overhead_s"] = _median([p["loop_s"] for p in m["traced"]]) - _median(
        [p["loop_s"] for p in m["plain"]]
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "wblowup" / "__init__.py").is_file():
        print(f"no wblowup sources under {root / 'src'}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    run = Run(root, args.workload, args.seed)
    try:
        m = measure(run, args.seconds, bool(args.trace))
        passes = m["plain"] + m["traced"]
        verdicts = [run.check(i, answer) for p in passes for i, answer in enumerate(p["answers"])]
    finally:
        if run.out_dir is not None:
            shutil.rmtree(run.out_dir)
    if args.trace:
        names = [metric["name"] for metric in spec["per_layer"]]
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
        values = per_layer(run, m, names)
        counts = [{k: v for k, v in p["tally"].items() if not k.endswith("_s")} for p in m["traced"]]
        print(f"counts repeat across {len(counts)} traced passes: {all(c == counts[0] for c in counts)}")
    else:
        names = [metric["name"] for metric in spec["end_to_end"]]
        units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
        values = end_to_end(run, m)
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(run.batch)} queries, "
        f"{len(m['setup'])} set-up samples, "
        f"machine.reference_loop_ms {statistics.median(m['loops']):.2f}"
    )
    if args.workload == "cli" and not args.trace:
        own_mb = m["own_peak_kb"] / 1024
        print(f"peak_rss_mb {values['peak_rss_mb']:.1f} over a floor of {own_mb:.1f} "
              f"(this process's own peak, which the children's figure cannot go below)"
              + ("" if values["peak_rss_mb"] > own_mb else ": the figure is the floor"))
    # failed counts queries that raised and queries answered wrongly; correct
    # speaks of the answers given, so only a wrong one makes it false.
    result = {
        "correct": "wrong" not in verdicts,
        "attempted": len(verdicts),
        "failed": len(verdicts) - verdicts.count("ok"),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
