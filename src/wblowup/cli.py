"""Command line front end.

`main` builds every document, one structured envelope

    {"schema_version": 1, "command": ..., "inputs": ..., "result": ...,
     "witnesses": [...], "checks": [...]}

into which a subcommand's handler fills only the fields it sets.  It is
rendered as JSON under --json and as plain lines otherwise.  Exit status:
0 on success, 1 when --strict is set and the run produced a negative
verdict (NOT_EQUAL, false, a failed check, or an exhausted search), 2 on
any error; error documents carry {"error": {"code", "message"}} with the
stable code of the underlying exception.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional, Sequence

from .charts import (
    CyclicQuotientType,
    _terminal_ages,
    charts,
    is_terminal,
    pushforward_membership,
)
from .contraction import contraction_profile, validate_profile
from .errors import InvalidArgumentError, WblowupError
from .monomials import EqualityVerdict, minimalize
from .parsing import (
    format_monomial,
    format_polynomial,
    parse_monomial,
    parse_polynomial,
    parse_weight,
)
from .symbolic import as_primary, compare_symbolic_power
from .weights import (
    find_normality_index,
    power_equality,
    sigma_wt,
    weighted_ideal_gens,
)

SCHEMA_VERSION = 1


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _required(args: argparse.Namespace, dest: str, leading: str) -> Any:
    value = getattr(args, dest)
    if value is None:
        raise InvalidArgumentError(f"{_flag(dest)} is required together with {_flag(leading)}")
    return value


def _mode(args: argparse.Namespace, first: Sequence[str], second: Sequence[str]) -> bool:
    """Whether a two-mode command runs its first mode rather than its second.

    Each mode is a group of argparse destinations: a leading flag, then the
    flags it requires.  Flags of both groups, a leading flag without one it
    requires, and no leading flag are refused in that order, before any
    other error of the command.
    """
    groups = (first, second)
    either = ", or ".join(" with ".join(map(_flag, group)) for group in groups)
    if all(any(getattr(args, dest) is not None for dest in group) for group in groups):
        raise InvalidArgumentError(f"pass either {either}, not both")
    for group in groups:
        if getattr(args, group[0]) is not None:
            for dest in group[1:]:
                _required(args, dest, group[0])
            return group is first
    raise InvalidArgumentError(f"pass either {either}")


def _weight_inputs(args: argparse.Namespace) -> tuple:
    w = parse_weight(args.weight, _required(args, "n", "weight"))
    return w, {"weight": list(w.entries), "n": w.n}


def _compared(inputs: dict, result: dict, verdict: EqualityVerdict) -> dict:
    witnesses = [format_monomial(verdict.witness)] if verdict.witness else []
    return {"inputs": inputs, "result": result, "witnesses": witnesses}


def _cmd_wt(args: argparse.Namespace) -> tuple[dict, bool]:
    w, inputs = _weight_inputs(args)
    f = parse_polynomial(args.polynomial, w.n)
    inputs["polynomial"] = format_polynomial(f)
    value = sigma_wt(w, f)
    return {"inputs": inputs, "result": {"sigma_wt": value}}, False


def _cmd_ideal(args: argparse.Namespace) -> tuple[dict, bool]:
    w, inputs = _weight_inputs(args)
    inputs["d"] = args.d
    ideal = weighted_ideal_gens(w, args.d)
    gens = [format_monomial(g) for g in ideal.generators]
    return {"inputs": inputs, "result": {"generators": gens, "count": len(gens)}}, False


def _cmd_normality(args: argparse.Namespace) -> tuple[dict, bool]:
    check = _mode(args, ("L", "d"), ("d_max", "L_max"))
    w, inputs = _weight_inputs(args)
    if check:
        inputs.update({"L": args.L, "d": args.d})
        verdict = power_equality(w, args.L, args.d)
        result = {"mode": "check", "verdict": verdict.verdict}
        return _compared(inputs, result, verdict), not verdict.equal
    inputs.update({"d_max": args.d_max, "L_max": args.L_max})
    index = find_normality_index(w, args.d_max, args.L_max)
    return {"inputs": inputs, "result": {"mode": "find", "normality_index": index}}, index is None


def _cmd_symbolic(args: argparse.Namespace) -> tuple[dict, bool]:
    if _mode(args, ("gens",), ("weight", "L")):
        n = _required(args, "n", "gens")
        ideal = minimalize([parse_monomial(text.strip(), n) for text in args.gens.split(",")], n)
        inputs: dict = {"n": n, "generators": [format_monomial(g) for g in ideal.generators]}
    else:
        w, inputs = _weight_inputs(args)
        inputs["L"] = args.L
        ideal = weighted_ideal_gens(w, args.L)
    inputs["t"] = args.t
    primary = as_primary(ideal)
    sym, verdict = compare_symbolic_power(primary, args.t)
    result = {
        "radical_vars": sorted(primary.radical_vars),
        "symbolic_generators": [format_monomial(g) for g in sym.generators],
        "verdict": verdict.verdict,
    }
    return _compared(inputs, result, verdict), not verdict.equal


def _cmd_charts(args: argparse.Namespace) -> tuple[dict, bool]:
    w, inputs = _weight_inputs(args)
    atlas = charts(w)
    chart_docs = [
        {
            "index": c.index,
            "quotient": {"order": c.quotient.order, "twists": list(c.quotient.twists)},
            "map": [format_monomial(m) for m in c.chart_map],
            "exceptional_coordinate": f"x{c.index}",
        }
        for c in atlas.charts
    ]
    result = {"cartier_index": atlas.cartier_index, "charts": chart_docs}
    return {"inputs": inputs, "result": result}, False


def _cmd_terminal(args: argparse.Namespace) -> tuple[dict, bool]:
    if _mode(args, ("r", "twists"), ("weight", "n")):
        try:
            twists = tuple(int(p.strip()) for p in args.twists.split(","))
        except ValueError as exc:
            raise InvalidArgumentError(f"malformed twists {args.twists!r}") from exc
        q = CyclicQuotientType(args.r, twists)
        inputs = {"r": q.order, "twists": list(q.twists)}
        verdict, ages = _terminal_ages(q)
        result = {"mode": "quotient", "terminal": verdict, "ages": ages}
        return {"inputs": inputs, "result": result}, not verdict
    w, inputs = _weight_inputs(args)
    chart_docs = [
        {"index": c.index, "order": c.quotient.order, "terminal": is_terminal(c.quotient)}
        for c in charts(w).charts
    ]
    verdict = all(c["terminal"] for c in chart_docs)
    result = {"mode": "blowup", "terminal": verdict, "charts": chart_docs}
    return {"inputs": inputs, "result": result}, not verdict


def _cmd_push(args: argparse.Namespace) -> tuple[dict, bool]:
    w, inputs = _weight_inputs(args)
    f = parse_polynomial(args.polynomial, w.n)
    inputs.update({"d": args.d, "polynomial": format_polynomial(f)})
    member = pushforward_membership(w, args.d, f)
    return {"inputs": inputs, "result": {"member": member}}, not member


def _cmd_profile(args: argparse.Namespace) -> tuple[dict, bool]:
    profile = contraction_profile(args.n, args.r, args.b)
    report = validate_profile(profile)
    inputs = {"n": args.n, "r": args.r, "b": args.b}
    result = {
        "tau": str(profile.tau),
        "weight": list(profile.weight.entries),
        "center_codim": profile.center_codim,
        "fiber_dim": profile.fiber_dim,
        "discrepancy": profile.discrepancy,
        "cartier_index": profile.charts.cartier_index,
        "terminal": profile.terminal,
        "all_checks_pass": report.all_pass,
    }
    checks = [
        {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
    ]
    return {"inputs": inputs, "result": result, "checks": checks}, not report.all_pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wblowup",
        description="Exact arithmetic for weighted blow-ups and their monomial ideals.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the document as JSON")
    common.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on NOT_EQUAL / false / failed-check outcomes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def weighted(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument("--weight", required=required, help="positive entries, e.g. 10,14,35")
        p.add_argument("--n", type=int, required=required, help="ambient dimension")

    p = sub.add_parser("wt", parents=[common], help="weighted degree of a polynomial")
    p.set_defaults(handler=_cmd_wt)
    weighted(p)
    p.add_argument("polynomial")

    p = sub.add_parser("ideal", parents=[common], help="minimal generators at a threshold")
    p.set_defaults(handler=_cmd_ideal)
    weighted(p)
    p.add_argument("--d", type=int, required=True, help="weighted-degree threshold")

    p = sub.add_parser(
        "normality", parents=[common], help="compare ideal powers against scaled thresholds"
    )
    p.set_defaults(handler=_cmd_normality)
    weighted(p)
    p.add_argument("--L", type=int, help="threshold whose d-th power to test")
    p.add_argument("--d", type=int, help="power exponent (with --L)")
    p.add_argument("--d-max", type=int, dest="d_max", help="certify powers 2..d_max (find mode)")
    p.add_argument("--L-max", type=int, dest="L_max", help="largest threshold to scan (find mode)")

    p = sub.add_parser(
        "symbolic", parents=[common], help="symbolic vs ordinary powers of a primary ideal"
    )
    p.set_defaults(handler=_cmd_symbolic)
    weighted(p, required=False)
    p.add_argument("--L", type=int, help="threshold when building the ideal from --weight")
    p.add_argument("--gens", help="comma-separated monomial generators, e.g. x1^2,x1*x2")
    p.add_argument("--t", type=int, required=True, help="power exponent")

    p = sub.add_parser("charts", parents=[common], help="chart atlas of the weighted blow-up")
    p.set_defaults(handler=_cmd_charts)
    weighted(p)

    p = sub.add_parser(
        "terminal", parents=[common], help="Reid-Tai terminality of a quotient or a blow-up"
    )
    p.set_defaults(handler=_cmd_terminal)
    weighted(p, required=False)
    p.add_argument("--r", type=int, help="cyclic group order (with --twists)")
    p.add_argument("--twists", help="comma-separated twists, e.g. 2,2,1")

    p = sub.add_parser(
        "push", parents=[common], help="vanishing order along the exceptional divisor"
    )
    p.set_defaults(handler=_cmd_push)
    weighted(p)
    p.add_argument("--d", type=int, required=True, help="required vanishing order")
    p.add_argument("polynomial")

    p = sub.add_parser("profile", parents=[common], help="contraction profile and validation")
    p.set_defaults(handler=_cmd_profile)
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--r", type=int, required=True, help="number of weight-b entries")
    p.add_argument("--b", type=int, required=True, help="weight multiplicity")

    return parser


def _human_lines(doc: dict) -> list[str]:
    error = doc.get("error")
    if error is not None:
        return [f"error[{error['code']}]: {error['message']}"]
    lines = []
    for key, value in doc["result"].items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for entry in value:
                rendered = ", ".join(f"{k}={v}" for k, v in entry.items())
                lines.append(f"{key}[]: {rendered}")
        elif isinstance(value, list):
            lines.append(f"{key}: {', '.join(str(v) for v in value)}")
        else:
            lines.append(f"{key}: {value}")
    if doc["witnesses"]:
        lines.append("witness: " + ", ".join(doc["witnesses"]))
    for check in doc["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        lines.append(f"[{status}] {check['name']}: {check['detail']}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": {},
        "result": None,
        "witnesses": [],
        "checks": [],
    }
    try:
        body, negative = args.handler(args)
        doc.update(body)
        status = 1 if args.strict and negative else 0
    except WblowupError as exc:
        doc["error"] = {"code": exc.code, "message": str(exc)}
        status = 2
    print(json.dumps(doc, indent=2) if args.json else "\n".join(_human_lines(doc)))
    return status


if __name__ == "__main__":
    sys.exit(main())
