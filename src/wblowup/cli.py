"""Command line front end.

`main` builds every document, one structured envelope

    {"schema_version": 1, "command": ..., "inputs": ..., "result": ...,
     "witnesses": [...], "checks": [...]}

into which a subcommand's handler fills only the fields it sets.  It is
rendered as plain lines by default and as JSON under --json.  Exit
status: 0 on success, 1 when --strict is set and the run produced a
negative verdict (NOT_EQUAL, false, a failed check, or an exhausted
search), 2 on any error; error documents carry {"error": {"code",
"message"}} with the stable code of the underlying exception.

``main`` writes the document to stdout through one writer as it renders
it, and no string ever holds all of it.  The JSON has the same bytes as
``json.dumps(doc, indent=2)``, but ``_render_json`` hands each list of
scalars to json's C encoder ``_BLOCK`` items at a time, which ``indent``
would switch off.  The long lists of a document (the monomials of an
ideal or of a chart map, the ages of a quotient) stay raw until then: a
handler passes a ``_Deferred`` of the exponent tuples or age sums that the
library returned, and both renderers format it one block at a time.  Only
formatting waits: every library call has returned before the first byte
is written, so the exit status and any error document are settled first.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Any, Callable, Optional, Sequence

from .charts import (
    CyclicQuotientType,
    _age_texts,
    _chart_quotients,
    _terminal_ages,
    cartier_index,
    charts,
    is_terminal,
    pushforward_membership,
)
from .contraction import contraction_profile, validate_profile
from .errors import InvalidArgumentError, PolynomialSyntaxError, WblowupError
from .monomials import EqualityVerdict, minimalize
from .parsing import (
    _format_monomials,
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
# Items a renderer formats and writes at a time.
_BLOCK = 4096


class _Deferred:
    """A list of strings kept as raw items until the renderer writes it.

    ``texts`` maps any slice of ``items`` to the strings of that slice.  It
    is neither a list nor a tuple, so the renderers' list branches do not
    take it.
    """

    __slots__ = ("items", "texts")

    def __init__(self, items: Sequence, texts: Callable[[Sequence], list[str]]) -> None:
        self.items, self.texts = items, texts

    def __len__(self) -> int:
        return len(self.items)


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
    exps = weighted_ideal_gens(w, args.d).exponents
    gens = _Deferred(exps, _format_monomials)
    return {"inputs": inputs, "result": {"generators": gens, "count": len(exps)}}, False


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
        gens, start = [], 0
        for piece in args.gens.split(","):
            try:
                gens.append(parse_monomial(piece, n))
            except PolynomialSyntaxError as exc:  # count the position in the whole text
                raise PolynomialSyntaxError(exc.message, start + exc.position) from None
            start += len(piece) + 1
        ideal = minimalize(gens, n)
        inputs: dict = {"n": n, "generators": _Deferred(ideal.exponents, _format_monomials)}
    else:
        w, inputs = _weight_inputs(args)
        inputs["L"] = args.L
        ideal = weighted_ideal_gens(w, args.L)
    inputs["t"] = args.t
    primary = as_primary(ideal)
    sym, verdict = compare_symbolic_power(primary, args.t)
    result = {
        "radical_vars": sorted(primary.radical_vars),
        "symbolic_generators": _Deferred(sym.exponents, _format_monomials),
        "verdict": verdict.verdict,
    }
    return _compared(inputs, result, verdict), not verdict.equal


def _cmd_charts(args: argparse.Namespace) -> tuple[dict, bool]:
    w, inputs = _weight_inputs(args)
    chart_docs = [
        {
            "index": c.index,
            "quotient": {"order": c.quotient.order, "twists": list(c.quotient.twists)},
            "map": _Deferred([m.exponents for m in c.chart_map], _format_monomials),
            "exceptional_coordinate": f"x{c.index}",
        }
        for c in charts(w)
    ]
    result = {"cartier_index": cartier_index(w), "charts": chart_docs}
    return {"inputs": inputs, "result": result}, False


def _cmd_terminal(args: argparse.Namespace) -> tuple[dict, bool]:
    if _mode(args, ("r", "twists"), ("weight", "n")):
        try:
            twists = tuple(map(int, args.twists.split(",")))
        except ValueError as exc:
            raise InvalidArgumentError(f"malformed twists {args.twists!r}") from exc
        q = CyclicQuotientType(args.r, twists)
        inputs = {"r": q.order, "twists": list(q.twists)}
        verdict, sums = _terminal_ages(q)
        ages = _Deferred(sums, partial(_age_texts, q.order))
        result = {"mode": "quotient", "terminal": verdict, "ages": ages}
        return {"inputs": inputs, "result": result}, not verdict
    w, inputs = _weight_inputs(args)
    chart_docs = [
        {"index": i, "order": q.order, "terminal": is_terminal(q)}
        for i, q in enumerate(_chart_quotients(w), start=1)
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
        "cartier_index": cartier_index(profile.weight),
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


def _write_blocks(value: Any, write: Callable[[str], Any], text: Callable, sep: str) -> None:
    """Write ``text`` of each block of a list of scalars or a ``_Deferred``, sep between."""
    items, texts = (value.items, value.texts) if isinstance(value, _Deferred) else (value, list)
    for start in range(0, len(items), _BLOCK):
        if start:
            write(sep)
        write(text(texts(items[start : start + _BLOCK])))


def _render_human(doc: dict, write: Callable[[str], Any]) -> None:
    """Write the plain lines of doc, each followed by a newline."""
    error = doc.get("error")
    if error is not None:
        write(f"error[{error['code']}]: {error['message']}\n")
        return
    for key, value in doc["result"].items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for entry in value:
                write(f"{key}[]: ")
                sep = ""
                for k, v in entry.items():
                    write(f"{sep}{k}=")
                    if isinstance(v, _Deferred):  # as str prints a list of str
                        write("[")
                        _write_blocks(v, write, lambda b: ", ".join(map(repr, b)), ", ")
                        write("]")
                    else:
                        write(str(v))
                    sep = ", "
                write("\n")
        elif isinstance(value, (list, _Deferred)):
            write(f"{key}: ")
            _write_blocks(value, write, lambda b: ", ".join(map(str, b)), ", ")
            write("\n")
        else:
            write(f"{key}: {value}\n")
    if doc["witnesses"]:
        write("witness: " + ", ".join(doc["witnesses"]) + "\n")
    for check in doc["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        write(f"[{status}] {check['name']}: {check['detail']}\n")


def _render_json(value: Any, indent: str, write: Callable[[str], Any]) -> None:
    """Write ``json.dumps(value, indent=2)`` at depth ``indent`` through write, in pieces.

    Keys must be str; tuples render as lists, as in ``json``, and a
    ``_Deferred`` as the list of its strings.  A list of scalars or a
    ``_Deferred`` goes to the C encoder ``_BLOCK`` items at a time, with the
    separators ``indent`` would give.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        opening = "{\n" + inner
        for key, item in value.items():
            write(f"{opening}{json.dumps(key)}: ")
            _render_json(item, inner, write)
            opening = ",\n" + inner
        write("\n" + indent + "}")
    elif isinstance(value, (list, tuple)) and not {dict, list, tuple}.isdisjoint(map(type, value)):
        opening = "[\n" + inner
        for item in value:
            write(opening)
            _render_json(item, inner, write)
            opening = ",\n" + inner
        write("\n" + indent + "]")
    elif isinstance(value, (list, tuple, _Deferred)) and len(value):
        encoder = json.JSONEncoder(separators=(",\n" + inner, ": "))
        write("[\n" + inner)
        _write_blocks(value, write, lambda b: encoder.encode(b)[1:-1], ",\n" + inner)
        write("\n" + indent + "]")
    else:
        write("[]" if isinstance(value, _Deferred) else json.dumps(value))


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
    write = sys.stdout.write
    if args.json:
        _render_json(doc, "", write)
        write("\n")
    else:
        _render_human(doc, write)
    return status


if __name__ == "__main__":
    sys.exit(main())
