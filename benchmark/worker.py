"""Answer one batch of benchmark queries in a fresh interpreter.

``run.py`` starts this file with ``PYTHONPATH`` set to the checkout's
``src/`` and writes ``{"workload", "queries", "trace"}`` as JSON to its standard
input.  The worker answers the queries one after another, timing
each call at the boundary of the public functions, and writes one JSON
object to standard output: per-query seconds, the calibration time each
followed (``machine.py``), the answers, the loop time,
its own peak resident memory and, when tracing, the per-layer tally.

``python3 benchmark/worker.py --cli ARGS...`` instead runs the ``wblowup``
command line on ARGS under tracing, leaves the command's own output on
standard output and writes the tally as one JSON line to standard error.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

from machine import CpuPicker, peak_rss_kb

# (module, function, layer name).  Layer names follow the modules of
# src/wblowup; several functions may share one layer name.
TRACED = [
    ("monomials", "minimalize", "monomials.minimalize"),
    ("monomials", "ideal_product", "monomials.ideal_product"),
    ("monomials", "ideal_power", "monomials.ideal_power"),
    ("monomials", "contains_monomial", "monomials.contains_monomial"),
    ("monomials", "colon", "monomials.colon"),
    ("monomials", "saturate", "monomials.saturate"),
    ("monomials", "radical", "monomials.radical"),
    ("weights", "weighted_ideal_gens", "weights.weighted_ideal_gens"),
    ("weights", "sigma_wt", "weights.sigma_wt"),
    ("weights", "power_equality", "weights.power_equality"),
    ("weights", "find_normality_index", "weights.find_normality_index"),
    ("symbolic", "as_primary", "symbolic.as_primary"),
    ("symbolic", "symbolic_power", "symbolic.symbolic_power"),
    ("symbolic", "symbolic_equals_ordinary", "symbolic.symbolic_equals_ordinary"),
    ("charts", "charts", "charts.charts"),
    ("charts", "reid_tai_ages", "charts.reid_tai_ages"),
    ("charts", "is_terminal", "charts.is_terminal"),
    ("charts", "is_terminal_blowup", "charts.is_terminal_blowup"),
    ("charts", "pushforward_membership", "charts.pushforward_membership"),
    ("contraction", "contraction_profile", "contraction.contraction_profile"),
    ("contraction", "validate_profile", "contraction.validate_profile"),
    ("parsing", "parse_polynomial", "parsing.parse"),
    ("parsing", "parse_monomial", "parsing.parse"),
    ("parsing", "parse_weight", "parsing.parse"),
    ("parsing", "format_monomial", "parsing.format"),
    ("parsing", "format_polynomial", "parsing.format"),
    ("cli", "main", "cli.main"),
]
# Seconds between moves to the CPU that is fastest now, and calibrations
# there, taken between queries.
REPIN_S = 0.25


class Tracer:
    """Spans at layer boundaries, folded into calls, self time and counts.

    A span's self time is its duration minus that of the spans it directly
    caused.  A call nested inside a span of the same layer (parse_monomial
    calling parse_polynomial) adds its time but not a second call.
    """

    def __init__(self):
        self.stack: list[list] = []  # [name, child seconds]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.distinct_gens: set = set()

    def wrap(self, name: str, fn):
        before, after = _BEFORE.get(name), _AFTER.get(name)
        stack, clock = self.stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            parent = stack[-1] if stack else None
            if parent is None or parent[0] != name:
                self.calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_s[name] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if after is not None:
                after(self, args, result, parent)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in each wblowup module that binds it by name.

        The modules come from sys.modules: ``wblowup.charts`` as an attribute
        is the function ``charts`` that the package re-exports, not the module.
        """
        for module_name, fn_name, name in TRACED:
            try:
                fn = getattr(importlib.import_module(f"wblowup.{module_name}"), fn_name)
            except (ImportError, AttributeError):
                continue
            wrapper = self.wrap(name, fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "wblowup" and not mod_name.startswith("wblowup."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def tally(self) -> dict:
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update({f"{name}.self_s": s for name, s in self.self_s.items()})
        out.update(self.counts)
        out["weights.weighted_ideal_gens.distinct"] = len(self.distinct_gens)
        return out


def _materialize(tracer: Tracer, args: tuple) -> tuple:
    gens = list(args[0])
    tracer.counts["monomials.minimalize.candidates"] += len(gens)
    return (gens,) + args[1:]


def _kept(tracer, args, result, parent):
    tracer.counts["monomials.minimalize.kept"] += len(result.generators)


def _pairs(tracer, args, result, parent):
    tracer.counts["monomials.ideal_product.pairs"] += len(args[0].generators) * len(args[1].generators)


def _colon_step(tracer, args, result, parent):
    if parent is not None and parent[0] == "monomials.saturate":
        tracer.counts["monomials.saturate.colon_steps"] += 1


def _generators(tracer, args, result, parent):
    tracer.counts["weights.weighted_ideal_gens.generators"] += len(result.generators)
    tracer.distinct_gens.add((args[0].entries, args[1]))


def _not_equal(name):
    def count(tracer, args, result, parent):
        if not result.equal:
            tracer.counts[f"{name}.not_equal"] += 1

    return count


def _ages(tracer, args, result, parent):
    tracer.counts["charts.reid_tai_ages.ages"] += len(result)


_BEFORE = {"monomials.minimalize": _materialize}
_AFTER = {
    "monomials.minimalize": _kept,
    "monomials.ideal_product": _pairs,
    "monomials.colon": _colon_step,
    "weights.weighted_ideal_gens": _generators,
    "weights.power_equality": _not_equal("weights.power_equality"),
    "symbolic.symbolic_equals_ordinary": _not_equal("symbolic.symbolic_equals_ordinary"),
    "charts.reid_tai_ages": _ages,
}


def _cache_hits() -> int:
    """Hits of the threshold-ideal cache, where the program has one."""
    cached = getattr(sys.modules.get("wblowup.weights"), "_minimal_ideal", None)
    info = getattr(cached, "cache_info", None)
    return info().hits if info else 0


def _exps(m):
    return list(m.exponents) if m is not None else None


def _normality(wb, q):
    w = wb.Weight(tuple(q["w"]))
    if q["op"] == "find":
        return wb.find_normality_index(w, q["d_max"], q["L_max"])
    return wb.power_equality(w, q["L"], q["d"])


def _normality_out(q, answer):
    if q["op"] == "find":
        return answer
    return [answer.equal, _exps(answer.witness)]


def _symbolic(wb, q):
    ideal = wb.minimalize([wb.Monomial(tuple(e)) for e in q["gens"]], len(q["gens"][0]))
    primary = wb.as_primary(ideal)
    return primary, wb.symbolic_equals_ordinary(primary, q["t"])


def _symbolic_out(q, answer):
    primary, verdict = answer
    return [sorted(primary.radical_vars), verdict.equal, _exps(verdict.witness)]


def _membership(wb, q):
    w, d = wb.Weight(tuple(q["w"])), q["d"]
    f = wb.parse_polynomial(q["text"], w.n)
    return (
        f,
        wb.sigma_wt(w, f) >= d,
        wb.contains(wb.weighted_ideal_gens(w, d), f),
        wb.pushforward_membership(w, d, f),
    )


def _membership_out(q, answer):
    f, by_weight, by_ideal, by_charts = answer
    return [sorted(list(m.exponents) for m in f.monomials()), by_weight, by_ideal, by_charts]


ANSWER = {
    "normality": (_normality, _normality_out),
    "symbolic": (_symbolic, _symbolic_out),
    "membership": (_membership, _membership_out),
}


def run_batch(job: dict) -> dict:
    import wblowup as wb

    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
        hits_before = _cache_hits()
    answer, encode = ANSWER[job["workload"]]
    seconds, cal_ms, answers = [], [], []
    clock = time.perf_counter
    cpus, next_move = CpuPicker(), 0.0
    for q in job["queries"]:
        if clock() >= next_move:
            cal = cpus.move_to_fastest()
            next_move = clock() + REPIN_S
        start = clock()
        try:
            answers.append(answer(wb, q))
        except Exception as exc:  # a query that raises is counted as failed
            answers.append(exc)
        seconds.append(clock() - start)
        cal_ms.append(cal)
    out = {
        "seconds": seconds,
        "cal_ms": cal_ms,
        "answers": [
            {"error": repr(a)} if isinstance(a, Exception) else encode(q, a)
            for q, a in zip(job["queries"], answers)
        ],
        "loop_s": sum(seconds),
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        out["tally"] = tracer.tally()
        out["tally"]["weights.cache_hits"] = _cache_hits() - hits_before
    return out


def run_cli(argv: list[str]) -> int:
    import wblowup.cli

    tracer = Tracer()
    tracer.install()
    hits_before = _cache_hits()
    try:
        return wblowup.cli.main(argv)
    finally:
        sys.stdout.flush()
        tally = tracer.tally()
        tally["weights.cache_hits"] = _cache_hits() - hits_before
        print(json.dumps(tally), file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--cli"]:
        sys.exit(run_cli(sys.argv[2:]))
    json.dump(run_batch(json.load(sys.stdin)), sys.stdout)
