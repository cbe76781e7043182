"""Command line interface: documents, exit codes, error codes."""

from __future__ import annotations

import contextlib
import io
import json
import math
import operator
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wblowup
from oracles import (
    brute_as_primary,
    brute_box_gens,
    brute_chart_ages,
    brute_compare_symbolic_power,
    brute_format_monomial,
    brute_ill_formed_coordinate,
    brute_parse_polynomial,
    brute_power_equality,
    brute_pushforward_membership,
    grlex_key,
    terminal_lemma,
)
from strategies import prime_radical_ideals
from wblowup.charts import _age_texts
from wblowup.cli import _BLOCK, _Deferred, _render_human, _render_json, main
from wblowup.monomials import Monomial, contains_monomial, ideal_power, minimalize
from wblowup.parsing import _format_monomials
from wblowup.symbolic import PrimaryMonomialIdeal
from wblowup.weights import Weight, _minimal_ideal, monomial_weight


def run(capsys, *argv: str) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_text(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestDocumentShape:
    def test_wt_document(self, capsys):
        code, doc = run(
            capsys, "wt", "--json", "--weight", "10,14,35", "--n", "3", "x1^5*x2^4*x3"
        )
        assert code == 0
        assert doc == {
            "schema_version": 1,
            "command": "wt",
            "inputs": {
                "weight": [10, 14, 35],
                "n": 3,
                "polynomial": "x1^5*x2^4*x3",
            },
            "result": {"sigma_wt": 141},
            "witnesses": [],
            "checks": [],
        }

    def test_ideal_document(self, capsys):
        code, doc = run(capsys, "ideal", "--json", "--weight", "1,1,2", "--n", "3", "--d", "2")
        assert code == 0
        assert doc["result"] == {
            "generators": ["x3", "x1^2", "x1*x2", "x2^2"],
            "count": 4,
        }

    def test_every_document_has_schema_fields(self, capsys):
        code, doc = run(capsys, "charts", "--json", "--weight", "1,1,3", "--n", "4")
        assert code == 0
        assert set(doc) == {
            "schema_version",
            "command",
            "inputs",
            "result",
            "witnesses",
            "checks",
        }


class TestNormality:
    def test_check_mode_not_equal(self, capsys):
        code, doc = run(
            capsys,
            "normality",
            "--json",
            "--weight",
            "10,14,35",
            "--n",
            "3",
            "--L",
            "70",
            "--d",
            "2",
        )
        assert code == 0
        assert doc["result"] == {"mode": "check", "verdict": "NOT_EQUAL"}
        assert doc["witnesses"] == ["x1^5*x2^4*x3"]

    def test_check_mode_equal(self, capsys):
        code, doc = run(
            capsys,
            "normality",
            "--json",
            "--weight",
            "1,1,2",
            "--n",
            "4",
            "--L",
            "2",
            "--d",
            "3",
        )
        assert code == 0
        assert doc["result"]["verdict"] == "EQUAL"
        assert doc["witnesses"] == []

    def test_strict_exit_on_not_equal(self, capsys):
        code, _ = run(
            capsys,
            "normality",
            "--json",
            "--strict",
            "--weight",
            "10,14,35",
            "--n",
            "3",
            "--L",
            "70",
            "--d",
            "2",
        )
        assert code == 1

    def test_find_mode(self, capsys):
        code, doc = run(
            capsys,
            "normality",
            "--json",
            "--weight",
            "1,1,3",
            "--n",
            "3",
            "--d-max",
            "3",
            "--L-max",
            "10",
        )
        assert code == 0
        assert doc["result"] == {"mode": "find", "normality_index": 3}

    def test_find_mode_exhausted(self, capsys):
        code, doc = run(
            capsys,
            "normality",
            "--json",
            "--strict",
            "--weight",
            "10,14,35",
            "--n",
            "3",
            "--d-max",
            "2",
            "--L-max",
            "70",
        )
        assert code == 1
        assert doc["result"]["normality_index"] is None

    def test_mode_must_be_complete(self, capsys):
        code, doc = run(
            capsys, "normality", "--json", "--weight", "1,1", "--n", "2", "--L", "3"
        )
        assert code == 2
        assert doc["error"]["code"] == "INVALID_ARGUMENT"


class TestSymbolic:
    def test_gens_mode_with_gap(self, capsys):
        code, doc = run(
            capsys,
            "symbolic",
            "--json",
            "--gens",
            "x1^2,x1*x2",
            "--n",
            "2",
            "--t",
            "2",
        )
        assert code == 0
        assert doc["result"] == {
            "radical_vars": [1],
            "symbolic_generators": ["x1^2"],
            "verdict": "NOT_EQUAL",
        }
        assert doc["witnesses"] == ["x1^2"]

    def test_weight_mode_equal(self, capsys):
        code, doc = run(
            capsys,
            "symbolic",
            "--json",
            "--weight",
            "1,1,2",
            "--n",
            "4",
            "--L",
            "2",
            "--t",
            "2",
        )
        assert code == 0
        assert doc["result"]["verdict"] == "EQUAL"
        assert doc["result"]["radical_vars"] == [1, 2, 3]

    def test_radical_not_prime_error(self, capsys):
        code, doc = run(
            capsys,
            "symbolic",
            "--json",
            "--gens",
            "x1*x2,x1*x3,x2*x3",
            "--n",
            "3",
            "--t",
            "2",
        )
        assert code == 2
        assert doc["error"]["code"] == "RADICAL_NOT_PRIME"

    def test_radical_not_prime_names_least_radical_generator(self, capsys):
        # rad(I) = (x1*x2, x3*x4); the least generator is named, not x3*x4,
        # the support of the ideal's first generator.
        code, doc = run(
            capsys, "symbolic", "--json", "--gens", "x3*x4,x1^3*x2", "--n", "4", "--t", "2"
        )
        assert code == 2
        assert doc == {
            "schema_version": 1,
            "command": "symbolic",
            "inputs": {},
            "result": None,
            "witnesses": [],
            "checks": [],
            "error": {
                "code": "RADICAL_NOT_PRIME",
                "message": "radical generator with support [1, 2] involves more than one variable",
            },
        }


class TestCharts:
    def test_atlas_document(self, capsys):
        code, doc = run(capsys, "charts", "--json", "--weight", "10,14,35", "--n", "3")
        assert code == 0
        assert doc["result"]["cartier_index"] == 70
        chart1 = doc["result"]["charts"][0]
        assert chart1 == {
            "index": 1,
            "quotient": {"order": 10, "twists": [1, 6, 5]},
            "map": ["x1^10", "x1^14*x2", "x1^35*x3"],
            "exceptional_coordinate": "x1",
        }


class TestTerminal:
    def test_quotient_mode(self, capsys):
        code, doc = run(
            capsys, "terminal", "--json", "--r", "3", "--twists", "2,2,1"
        )
        assert code == 0
        assert doc["result"] == {
            "mode": "quotient",
            "terminal": True,
            "ages": ["5/3", "4/3"],
        }

    def test_quotient_mode_strict_failure(self, capsys):
        code, doc = run(
            capsys, "terminal", "--json", "--strict", "--r", "2", "--twists", "1,1"
        )
        assert code == 1
        assert doc["result"]["terminal"] is False

    def test_blowup_mode(self, capsys):
        code, doc = run(capsys, "terminal", "--json", "--weight", "1,1,2", "--n", "3")
        assert code == 0
        assert doc["result"] == {
            "mode": "blowup",
            "terminal": True,
            "charts": [
                {"index": 1, "order": 1, "terminal": True},
                {"index": 2, "order": 1, "terminal": True},
                {"index": 3, "order": 2, "terminal": True},
            ],
        }

    def test_blowup_mode_not_terminal(self, capsys):
        code, doc = run(
            capsys, "terminal", "--json", "--strict", "--weight", "10,14,35", "--n", "3"
        )
        assert code == 1
        assert doc["result"] == {
            "mode": "blowup",
            "terminal": False,
            "charts": [
                {"index": 1, "order": 10, "terminal": False},
                {"index": 2, "order": 14, "terminal": False},
                {"index": 3, "order": 35, "terminal": False},
            ],
        }

    def test_ill_formed_action(self, capsys):
        code, doc = run(
            capsys, "terminal", "--json", "--r", "4", "--twists", "2,2"
        )
        assert code == 2
        assert doc["error"]["code"] == "ILL_FORMED_ACTION"

    def test_quotient_mode_forms_the_ages_once(self, capsys, monkeypatch):
        # The verdict and the printed ages come from one pass of the sums.
        module = sys.modules["wblowup.charts"]
        age_sums, calls = module._age_sums, []

        def counted(q):
            calls.append(q)
            return age_sums(q)

        monkeypatch.setattr(module, "_age_sums", counted)
        code, doc = run(capsys, "terminal", "--json", "--r", "7", "--twists", "2,5,1")
        assert code == 0
        assert doc["result"]["terminal"] is True
        assert doc["result"]["ages"] == ["8/7", "9/7", "10/7", "11/7", "12/7", "13/7"]
        assert len(calls) == 1

    def test_blowup_verdicts_build_no_atlas(self, capsys, monkeypatch):
        # Both blow-up verdicts read the chart quotients alone: make the
        # atlas raise wherever the package binds it, then ask them.
        atlas = sys.modules["wblowup.charts"].charts

        def refuse(w):
            raise AssertionError(f"a blow-up verdict built the atlas of {w}")

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "wblowup" and getattr(module, "charts", None) is atlas:
                monkeypatch.setattr(module, "charts", refuse)
        assert sys.modules["wblowup.cli"].charts is refuse
        assert wblowup.is_terminal_blowup(wblowup.Weight((1, 1, 2)))
        assert not wblowup.is_terminal_blowup(wblowup.Weight((10, 14, 35)))
        code, doc = run(capsys, "terminal", "--json", "--weight", "1,1,2", "--n", "3")
        assert code == 0
        assert doc["result"]["terminal"] is True

    @pytest.mark.parametrize("r, twists", [("3", "1,0,0"), ("4", "1,2,2")])
    def test_pseudo_reflection_is_an_error(self, capsys, r, twists):
        code, doc = run(capsys, "terminal", "--json", "--r", r, "--twists", twists)
        assert code == 2
        assert doc["result"] is None
        assert doc["error"]["code"] == "ILL_FORMED_ACTION"


class TestPush:
    def test_member(self, capsys):
        code, doc = run(
            capsys,
            "push",
            "--json",
            "--weight",
            "10,14,35",
            "--n",
            "3",
            "--d",
            "140",
            "x1^5*x2^4*x3",
        )
        assert code == 0
        assert doc["result"] == {"member": True}

    def test_non_member_strict(self, capsys):
        code, doc = run(
            capsys,
            "push",
            "--json",
            "--strict",
            "--weight",
            "10,14,35",
            "--n",
            "3",
            "--d",
            "142",
            "x1^5*x2^4*x3",
        )
        assert code == 1
        assert doc["result"] == {"member": False}

    def test_zero_polynomial_error(self, capsys):
        code, doc = run(
            capsys, "push", "--json", "--weight", "1,1", "--n", "2", "--d", "2", "x1 - x1"
        )
        assert code == 2
        assert doc["error"]["code"] == "ZERO_POLYNOMIAL"

    @pytest.mark.parametrize("d, member", [(141, True), (142, False)])
    def test_later_term_decides(self, capsys, d, member):
        # x1^15 has weight 150, x1^5*x2^4*x3 has weight 141: only the
        # minimum over the terms counts.
        argv = ["push", "--weight", "10,14,35", "--n", "3", "--d", str(d)]
        argv.append("x1^15 + x1^5*x2^4*x3")
        code, doc = run(capsys, *argv, "--json")
        assert code == 0
        assert doc["inputs"]["polynomial"] == "x1^5*x2^4*x3 + x1^15"
        assert doc["result"] == {"member": member}
        code, out = run_text(capsys, *argv)
        assert code == 0
        assert out == f"member: {member}\n"

    @pytest.mark.parametrize(
        "polynomial, code, message",
        [
            ("x1 - x1", "ZERO_POLYNOMIAL", "the zero polynomial has no vanishing order"),
            ("x1", "INVALID_ARGUMENT", "order must be non-negative, got -1"),
        ],
        ids=["zero-before-order", "negative-order"],
    )
    def test_error_precedence(self, capsys, polynomial, code, message):
        exit_code, doc = run(
            capsys, "push", "--json", "--weight", "10,14,35", "--n", "3", "--d", "-1", polynomial
        )
        assert exit_code == 2
        assert doc["result"] is None
        assert doc["error"] == {"code": code, "message": message}


class TestLeadingMinus:
    """A polynomial that starts with '-' and holds no blank goes after `--` and every flag."""

    def test_after_double_dash(self, capsys):
        argv = ["wt", "--weight", "1,1", "--n", "2", "--", "-x1"]
        assert run_text(capsys, *argv) == (0, "sigma_wt: 1\n")
        argv = ["push", "--weight", "1,1", "--n", "2", "--d", "1", "--json", "--", "-x1+x2"]
        code, doc = run(capsys, *argv)
        assert code == 0
        assert doc["inputs"]["polynomial"] == "-x1 + x2"
        assert doc["result"] == {"member": True}

    def test_without_double_dash_argparse_refuses(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["wt", "--weight", "1,1", "--n", "2", "-x1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: wblowup wt")


class TestProfile:
    def test_document(self, capsys):
        code, doc = run(capsys, "profile", "--json", "--n", "3", "--r", "1", "--b", "2")
        assert code == 0
        assert doc["result"] == {
            "tau": "3/2",
            "weight": [1, 1, 2],
            "center_codim": 3,
            "fiber_dim": 2,
            "discrepancy": 3,
            "cartier_index": 2,
            "terminal": True,
            "all_checks_pass": True,
        }
        assert [c["name"] for c in doc["checks"]] == [
            "nef-value-formula",
            "nef-value-bound",
            "fiber-dimension",
            "center-codimension",
            "weight-shape",
            "discrepancy",
            "terminality",
        ]
        assert all(c["passed"] for c in doc["checks"])

    def test_no_such_contraction(self, capsys):
        code, doc = run(capsys, "profile", "--json", "--n", "3", "--r", "2", "--b", "1")
        assert code == 2
        assert doc["error"]["code"] == "NO_SUCH_CONTRACTION"


class TestErrors:
    def test_invalid_weight(self, capsys):
        code, doc = run(capsys, "ideal", "--json", "--weight", "2,4", "--n", "2", "--d", "3")
        assert code == 2
        assert doc["error"]["code"] == "INVALID_WEIGHT"
        assert doc["result"] is None

    def test_negative_weight_entry(self, capsys):
        code, doc = run(capsys, "ideal", "--json", "--weight", "1,-1", "--n", "2", "--d", "2")
        assert code == 2
        assert doc["error"] == {
            "code": "INVALID_WEIGHT",
            "message": "weight entries must be non-negative, got (1, -1)",
        }

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_non_positive_ambient_dimension(self, capsys, n):
        # The same error whether the dimension meets a polynomial or a
        # weight first; a weight used to report INVALID_WEIGHT instead.
        for argv in (
            ["symbolic", "--gens", "x1", "--t", "2"],
            ["ideal", "--weight", "1,2", "--d", "2"],
            ["terminal", "--weight", "1,2"],
        ):
            code, doc = run(capsys, *argv, "--n", n, "--json")
            assert code == 2, argv
            assert doc["error"] == {
                "code": "INVALID_ARGUMENT",
                "message": "ambient dimension must be at least 1",
            }, argv

    def test_parse_error(self, capsys):
        code, doc = run(
            capsys, "wt", "--json", "--weight", "1,1", "--n", "2", "2x1"
        )
        assert code == 2
        assert doc["error"]["code"] == "PARSE_ERROR"
        assert "position" in doc["error"]["message"]

    @pytest.mark.parametrize(
        "gens, message",
        [
            ("x1^2, x2^0", "exponent must be at least 1 (at position 9)"),
            ("x1,2*x2", "expected a single monomial with coefficient 1 (at position 3)"),
            ("x1,,x2", "empty input (at position 3)"),
        ],
        ids=["exponent-in-second-piece", "refused-piece", "empty-piece"],
    )
    def test_gens_parse_positions_count_in_the_whole_text(self, capsys, gens, message):
        code, doc = run(capsys, "symbolic", "--json", "--gens", gens, "--n", "2", "--t", "2")
        assert code == 2
        assert doc["error"] == {"code": "PARSE_ERROR", "message": message}

    def test_zero_polynomial(self, capsys):
        code, doc = run(
            capsys, "wt", "--json", "--weight", "1,1", "--n", "2", "x1 - x1"
        )
        assert code == 2
        assert doc["error"]["code"] == "ZERO_POLYNOMIAL"

    def test_errors_ignore_strict(self, capsys):
        code, _ = run(
            capsys, "wt", "--json", "--strict", "--weight", "1,1", "--n", "2", "x1 - x1"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["normality", "--weight", "1,1", "--n", "2"],
                "pass either --L with --d, or --d-max with --L-max",
            ),
            (
                ["normality", "--weight", "1,1", "--n", "2", "--L", "3", "--d", "2",
                 "--d-max", "3", "--L-max", "10"],
                "pass either --L with --d, or --d-max with --L-max, not both",
            ),
            (
                ["normality", "--weight", "1,1", "--n", "2", "--d", "2",
                 "--d-max", "3", "--L-max", "10"],
                "pass either --L with --d, or --d-max with --L-max, not both",
            ),
            (
                ["normality", "--weight", "1,1", "--n", "2", "--d-max", "3"],
                "--L-max is required together with --d-max",
            ),
            (
                ["normality", "--weight", "1,1", "--n", "2", "--L-max", "10"],
                "pass either --L with --d, or --d-max with --L-max",
            ),
            (
                ["normality", "--weight", "2,4", "--n", "2", "--L", "3"],
                "--d is required together with --L",
            ),
            (
                ["symbolic", "--gens", "x1", "--weight", "1,1", "--n", "2", "--t", "2"],
                "pass either --gens, or --weight with --L, not both",
            ),
            (
                ["symbolic", "--gens", "x1^2,x1*x2", "--n", "2", "--L", "5", "--t", "2"],
                "pass either --gens, or --weight with --L, not both",
            ),
            (
                ["symbolic", "--weight", "1,1", "--n", "2", "--t", "2"],
                "--L is required together with --weight",
            ),
            (["symbolic", "--n", "2", "--t", "2"], "pass either --gens, or --weight with --L"),
            (
                ["symbolic", "--L", "5", "--n", "2", "--t", "2"],
                "pass either --gens, or --weight with --L",
            ),
            (["terminal", "--r", "3"], "--twists is required together with --r"),
            (["terminal", "--r", "3", "--twists", "1,a"], "malformed twists '1,a'"),
            (["terminal"], "pass either --r with --twists, or --weight with --n"),
            (
                ["terminal", "--twists", "2,2,1"],
                "pass either --r with --twists, or --weight with --n",
            ),
            (
                ["terminal", "--r", "3", "--twists", "2,2,1", "--weight", "10,14,35", "--n", "3"],
                "pass either --r with --twists, or --weight with --n, not both",
            ),
            (
                ["terminal", "--twists", "2,2,1", "--weight", "1,1,2", "--n", "3"],
                "pass either --r with --twists, or --weight with --n, not both",
            ),
            (
                ["terminal", "--r", "3", "--twists", "2,2,1", "--n", "7"],
                "pass either --r with --twists, or --weight with --n, not both",
            ),
        ],
        ids=[
            "normality-no-mode",
            "normality-check-and-find",
            "normality-d-and-find",
            "normality-d-max-no-L-max",
            "normality-L-max-only",
            "normality-mode-before-weight",
            "symbolic-gens-and-weight",
            "symbolic-gens-and-L",
            "symbolic-weight-no-L",
            "symbolic-no-ideal",
            "symbolic-L-only",
            "terminal-r-no-twists",
            "terminal-malformed-twists",
            "terminal-no-mode",
            "terminal-twists-only",
            "terminal-r-and-weight",
            "terminal-twists-and-weight",
            "terminal-r-and-n",
        ],
    )
    def test_argument_combination(self, capsys, argv, message):
        code, doc = run(capsys, *argv, "--json", "--strict")
        assert code == 2
        assert doc["result"] is None
        assert doc["error"] == {"code": "INVALID_ARGUMENT", "message": message}

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["symbolic", "--gens", "x1^2,x2", "--t", "2"], "--gens"),
            (["symbolic", "--weight", "1,1,2", "--L", "2", "--t", "2"], "--weight"),
            (["terminal", "--weight", "1,1,2"], "--weight"),
        ],
        ids=["symbolic-gens", "symbolic-weight", "terminal-weight"],
    )
    def test_missing_n(self, capsys, argv, flag):
        code, doc = run(capsys, *argv, "--json", "--strict")
        assert code == 2
        assert doc["result"] is None
        assert doc["error"] == {
            "code": "INVALID_ARGUMENT",
            "message": f"--n is required together with {flag}",
        }


class TestHumanOutput:
    def test_wt_plain(self, capsys):
        code, out = run_text(
            capsys, "wt", "--weight", "10,14,35", "--n", "3", "x1^5*x2^4*x3"
        )
        assert code == 0
        assert out.strip() == "sigma_wt: 141"

    def test_normality_plain_shows_witness(self, capsys):
        code, out = run_text(
            capsys,
            "normality",
            "--weight",
            "10,14,35",
            "--n",
            "3",
            "--L",
            "70",
            "--d",
            "2",
        )
        assert code == 0
        assert "verdict: NOT_EQUAL" in out
        assert "witness: x1^5*x2^4*x3" in out

    def test_profile_plain_shows_checks(self, capsys):
        code, out = run_text(capsys, "profile", "--n", "3", "--r", "1", "--b", "2")
        assert code == 0
        assert "[PASS] nef-value-formula" in out

    def test_charts_plain(self, capsys):
        code, out = run_text(capsys, "charts", "--weight", "1,1,3", "--n", "4")
        assert code == 0
        assert out.splitlines() == [
            "cartier_index: 3",
            "charts[]: index=1, quotient={'order': 1, 'twists': [0, 0, 0, 0]}, "
            "map=['x1', 'x1*x2', 'x1^3*x3', 'x4'], exceptional_coordinate=x1",
            "charts[]: index=2, quotient={'order': 1, 'twists': [0, 0, 0, 0]}, "
            "map=['x1*x2', 'x2', 'x2^3*x3', 'x4'], exceptional_coordinate=x2",
            "charts[]: index=3, quotient={'order': 3, 'twists': [2, 2, 1, 0]}, "
            "map=['x1*x3', 'x2*x3', 'x3^3', 'x4'], exceptional_coordinate=x3",
        ]

    def test_terminal_blowup_plain(self, capsys):
        code, out = run_text(capsys, "terminal", "--weight", "1,1,2", "--n", "3")
        assert code == 0
        assert out.splitlines() == [
            "mode: blowup",
            "terminal: True",
            "charts[]: index=1, order=1, terminal=True",
            "charts[]: index=2, order=1, terminal=True",
            "charts[]: index=3, order=2, terminal=True",
        ]

    def test_error_plain(self, capsys):
        code, out = run_text(capsys, "ideal", "--weight", "2,4", "--n", "2", "--d", "1")
        assert code == 2
        assert out.startswith("error[INVALID_WEIGHT]")


# Whole documents as the parent of the one-envelope change printed them.
_PINNED = {
    "symbolic-gens": (
        ["symbolic", "--gens", "x1^2,x1*x2", "--n", "2", "--t", "2"],
        0,
        "radical_vars: 1\nsymbolic_generators: x1^2\nverdict: NOT_EQUAL\nwitness: x1^2\n",
        {
            "schema_version": 1,
            "command": "symbolic",
            "inputs": {"n": 2, "generators": ["x1^2", "x1*x2"], "t": 2},
            "result": {
                "radical_vars": [1],
                "symbolic_generators": ["x1^2"],
                "verdict": "NOT_EQUAL",
            },
            "witnesses": ["x1^2"],
            "checks": [],
        },
    ),
    "symbolic-weight": (
        ["symbolic", "--weight", "1,1,2", "--n", "3", "--L", "2", "--t", "2"],
        0,
        "radical_vars: 1, 2, 3\n"
        "symbolic_generators: x3^2, x1^2*x3, x1*x2*x3, x2^2*x3, x1^4, x1^3*x2, x1^2*x2^2, "
        "x1*x2^3, x2^4\n"
        "verdict: EQUAL\n",
        {
            "schema_version": 1,
            "command": "symbolic",
            "inputs": {"weight": [1, 1, 2], "n": 3, "L": 2, "t": 2},
            "result": {
                "radical_vars": [1, 2, 3],
                "symbolic_generators": [
                    "x3^2", "x1^2*x3", "x1*x2*x3", "x2^2*x3",
                    "x1^4", "x1^3*x2", "x1^2*x2^2", "x1*x2^3", "x2^4",
                ],
                "verdict": "EQUAL",
            },
            "witnesses": [],
            "checks": [],
        },
    ),
    "charts": (
        ["charts", "--weight", "10,14,35", "--n", "3"],
        0,
        "cartier_index: 70\n"
        "charts[]: index=1, quotient={'order': 10, 'twists': [1, 6, 5]}, "
        "map=['x1^10', 'x1^14*x2', 'x1^35*x3'], exceptional_coordinate=x1\n"
        "charts[]: index=2, quotient={'order': 14, 'twists': [4, 1, 7]}, "
        "map=['x1*x2^10', 'x2^14', 'x2^35*x3'], exceptional_coordinate=x2\n"
        "charts[]: index=3, quotient={'order': 35, 'twists': [25, 21, 1]}, "
        "map=['x1*x3^10', 'x2*x3^14', 'x3^35'], exceptional_coordinate=x3\n",
        {
            "schema_version": 1,
            "command": "charts",
            "inputs": {"weight": [10, 14, 35], "n": 3},
            "result": {
                "cartier_index": 70,
                "charts": [
                    {
                        "index": 1,
                        "quotient": {"order": 10, "twists": [1, 6, 5]},
                        "map": ["x1^10", "x1^14*x2", "x1^35*x3"],
                        "exceptional_coordinate": "x1",
                    },
                    {
                        "index": 2,
                        "quotient": {"order": 14, "twists": [4, 1, 7]},
                        "map": ["x1*x2^10", "x2^14", "x2^35*x3"],
                        "exceptional_coordinate": "x2",
                    },
                    {
                        "index": 3,
                        "quotient": {"order": 35, "twists": [25, 21, 1]},
                        "map": ["x1*x3^10", "x2*x3^14", "x3^35"],
                        "exceptional_coordinate": "x3",
                    },
                ],
            },
            "witnesses": [],
            "checks": [],
        },
    ),
    "terminal-quotient": (
        ["terminal", "--r", "3", "--twists", "2,2,1"],
        0,
        "mode: quotient\nterminal: True\nages: 5/3, 4/3\n",
        {
            "schema_version": 1,
            "command": "terminal",
            "inputs": {"r": 3, "twists": [2, 2, 1]},
            "result": {"mode": "quotient", "terminal": True, "ages": ["5/3", "4/3"]},
            "witnesses": [],
            "checks": [],
        },
    ),
    "terminal-blowup": (
        ["terminal", "--weight", "1,1,2", "--n", "3"],
        0,
        "mode: blowup\n"
        "terminal: True\n"
        "charts[]: index=1, order=1, terminal=True\n"
        "charts[]: index=2, order=1, terminal=True\n"
        "charts[]: index=3, order=2, terminal=True\n",
        {
            "schema_version": 1,
            "command": "terminal",
            "inputs": {"weight": [1, 1, 2], "n": 3},
            "result": {
                "mode": "blowup",
                "terminal": True,
                "charts": [
                    {"index": 1, "order": 1, "terminal": True},
                    {"index": 2, "order": 1, "terminal": True},
                    {"index": 3, "order": 2, "terminal": True},
                ],
            },
            "witnesses": [],
            "checks": [],
        },
    ),
    "push": (
        ["push", "--weight", "10,14,35", "--n", "3", "--d", "140", "x1^5*x2^4*x3"],
        0,
        "member: True\n",
        {
            "schema_version": 1,
            "command": "push",
            "inputs": {"weight": [10, 14, 35], "n": 3, "d": 140, "polynomial": "x1^5*x2^4*x3"},
            "result": {"member": True},
            "witnesses": [],
            "checks": [],
        },
    ),
    "profile": (
        ["profile", "--n", "3", "--r", "1", "--b", "2"],
        0,
        "tau: 3/2\n"
        "weight: 1, 1, 2\n"
        "center_codim: 3\n"
        "fiber_dim: 2\n"
        "discrepancy: 3\n"
        "cartier_index: 2\n"
        "terminal: True\n"
        "all_checks_pass: True\n"
        "[PASS] nef-value-formula: tau = 3/2, expected r + 1/b = 3/2\n"
        "[PASS] nef-value-bound: tau = 3/2 must be at most n + 1 = 4\n"
        "[PASS] fiber-dimension: fiber_dim = 2 must equal r + 1 = 2 and dominate tau = 3/2, "
        "which must exceed r = 1\n"
        "[PASS] center-codimension: center_codim = 3, expected r + 2 = 3\n"
        "[PASS] weight-shape: weight = (1, 1, 2), expected (1, 1, 2)\n"
        "[PASS] discrepancy: discrepancy = 3 must equal r*b + 1 = 3 and b * tau = 3\n"
        "[PASS] terminality: stored terminal = True, recomputed = True\n",
        {
            "schema_version": 1,
            "command": "profile",
            "inputs": {"n": 3, "r": 1, "b": 2},
            "result": {
                "tau": "3/2",
                "weight": [1, 1, 2],
                "center_codim": 3,
                "fiber_dim": 2,
                "discrepancy": 3,
                "cartier_index": 2,
                "terminal": True,
                "all_checks_pass": True,
            },
            "witnesses": [],
            "checks": [
                {
                    "name": "nef-value-formula",
                    "passed": True,
                    "detail": "tau = 3/2, expected r + 1/b = 3/2",
                },
                {
                    "name": "nef-value-bound",
                    "passed": True,
                    "detail": "tau = 3/2 must be at most n + 1 = 4",
                },
                {
                    "name": "fiber-dimension",
                    "passed": True,
                    "detail": "fiber_dim = 2 must equal r + 1 = 2 and dominate tau = 3/2, "
                    "which must exceed r = 1",
                },
                {
                    "name": "center-codimension",
                    "passed": True,
                    "detail": "center_codim = 3, expected r + 2 = 3",
                },
                {
                    "name": "weight-shape",
                    "passed": True,
                    "detail": "weight = (1, 1, 2), expected (1, 1, 2)",
                },
                {
                    "name": "discrepancy",
                    "passed": True,
                    "detail": "discrepancy = 3 must equal r*b + 1 = 3 and b * tau = 3",
                },
                {
                    "name": "terminality",
                    "passed": True,
                    "detail": "stored terminal = True, recomputed = True",
                },
            ],
        },
    ),
    "library-error": (
        ["ideal", "--weight", "2,4", "--n", "2", "--d", "3"],
        2,
        "error[INVALID_WEIGHT]: gcd of the positive entries must be 1, got (2, 4)\n",
        {
            "schema_version": 1,
            "command": "ideal",
            "inputs": {},
            "result": None,
            "witnesses": [],
            "checks": [],
            "error": {
                "code": "INVALID_WEIGHT",
                "message": "gcd of the positive entries must be 1, got (2, 4)",
            },
        },
    ),
    "mode-error": (
        ["normality", "--weight", "1,1", "--n", "2"],
        2,
        "error[INVALID_ARGUMENT]: pass either --L with --d, or --d-max with --L-max\n",
        {
            "schema_version": 1,
            "command": "normality",
            "inputs": {},
            "result": None,
            "witnesses": [],
            "checks": [],
            "error": {
                "code": "INVALID_ARGUMENT",
                "message": "pass either --L with --d, or --d-max with --L-max",
            },
        },
    ),
    "parse-error": (
        ["wt", "--weight", "1,1", "--n", "2", "2x1"],
        2,
        "error[PARSE_ERROR]: missing '*' between coefficient and variable (at position 1)\n",
        {
            "schema_version": 1,
            "command": "wt",
            "inputs": {},
            "result": None,
            "witnesses": [],
            "checks": [],
            "error": {
                "code": "PARSE_ERROR",
                "message": "missing '*' between coefficient and variable (at position 1)",
            },
        },
    ),
}


class TestPinnedDocuments:
    """Whole documents, byte for byte: the plain lines, and the JSON with its key order."""

    @pytest.mark.parametrize("case", list(_PINNED))
    def test_document(self, capsys, case):
        argv, status, plain, document = _PINNED[case]
        assert run_text(capsys, *argv) == (status, plain)
        assert run_text(capsys, *argv, "--json") == (status, json.dumps(document, indent=2) + "\n")


def run_json(command: str, *argv: str) -> tuple[int, dict]:
    """`main([command, "--json", *argv])` in-process; capsys cannot serve a hypothesis test."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--json", *argv])
    return code, json.loads(out.getvalue())


@st.composite
def small_weights(draw) -> Weight:
    """Weights with at most three positive entries, each at most 6, and up to two zeros."""
    entries = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    if math.gcd(*entries) != 1:
        entries[0] = 1
    return Weight(tuple(entries) + (0,) * draw(st.integers(0, 2)))


def weight_args(w: Weight) -> list[str]:
    return ["--weight", ",".join(map(str, w.nonzero)), "--n", str(w.n)]


def term_text(exps: tuple[int, ...], c: Fraction) -> str:
    """One term of the grammar, without its sign: "3/2*x1^2*x3", "x2^1" or "5"."""
    factors = "*".join(f"x{i}^{s}" for i, s in enumerate(exps, 1) if s)
    if not factors:
        return str(abs(c))
    return factors if abs(c) == 1 else f"{abs(c)}*{factors}"


def draw_polynomial(data, w: Weight) -> tuple[str, list]:
    """A polynomial text in ``w.n`` variables and its canonical terms, drawn.

    Few monomials and repeated draws give like terms, and the negated
    copies of a drawn prefix cancel some terms or all of them, which leaves
    no canonical term.
    """
    pool = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * w.n), min_size=1, max_size=3))
    coefficients = st.fractions(-3, 3, max_denominator=3).filter(bool)
    terms = data.draw(
        st.lists(st.tuples(st.sampled_from(pool), coefficients), min_size=1, max_size=5)
    )
    cancelled = data.draw(st.integers(0, len(terms)))
    terms = data.draw(st.permutations(terms + [(e, -c) for e, c in terms[:cancelled]]))
    text = "".join(
        ("-" if c < 0 else "+" if pos else "") + term_text(e, c)
        for pos, (e, c) in enumerate(terms)
    )
    sums: dict[tuple[int, ...], Fraction] = {}
    for e, c in terms:
        sums[e] = sums.get(e, Fraction(0)) + c
    expected = sorted(
        ((Monomial(e), c) for e, c in sums.items() if c), key=lambda t: grlex_key(t[0])
    )
    return text, expected


class TestDocumentsAgainstOracles:
    """Random documents, each answer checked along the route tests/oracles.py takes."""

    @given(small_weights(), st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_ideal(self, w, d):
        code, doc = run_json("ideal", *weight_args(w), "--d", str(d))
        assert code == 0
        gens = []
        for text in doc["result"]["generators"]:
            ((g, c),) = brute_parse_polynomial(text, w.n).terms
            assert c == 1
            gens.append(g)
        assert {g.exponents for g in gens} == brute_box_gens(w.entries, d)
        keys = [grlex_key(g) for g in gens]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert doc["result"]["count"] == len(gens)

    @given(st.data(), small_weights())
    @settings(max_examples=40, deadline=None)
    def test_charts(self, data, w):
        code, doc = run_json("charts", *weight_args(w))
        assert code == 0
        assert doc["result"]["cartier_index"] == math.lcm(*w.nonzero)
        chart_docs = doc["result"]["charts"]
        assert [c["index"] for c in chart_docs] == list(range(1, w.k + 1))
        s = data.draw(st.tuples(*[st.integers(0, 4)] * w.n))
        for chart in chart_docs:
            i, ai = chart["index"], w.entries[chart["index"] - 1]
            twists = [(1 if j == i else -a) % ai for j, a in enumerate(w.entries, 1)]
            assert chart["quotient"] == {"order": ai, "twists": twists}
            assert chart["exceptional_coordinate"] == f"x{i}"
            u_i = 0
            for sj, text in zip(s, chart["map"]):
                ((image, c),) = brute_parse_polynomial(text, w.n).terms
                assert c == 1
                u_i += sj * image.exponents[i - 1]
            assert u_i == monomial_weight(w, Monomial(s))

    @given(st.data(), small_weights())
    @settings(max_examples=40, deadline=None)
    def test_push(self, data, w):
        text, expected = draw_polynomial(data, w)
        d = data.draw(st.integers(0, 2 * max(w.entries) + 2))
        code, doc = run_json("push", *weight_args(w), "--d", str(d), "--", text)
        if not expected:
            assert code == 2
            assert doc["error"]["code"] == "ZERO_POLYNOMIAL"
            return
        assert code == 0
        echoed = brute_parse_polynomial(doc["inputs"]["polynomial"], w.n)
        assert echoed.terms == tuple(expected)
        assert echoed == brute_parse_polynomial(text, w.n)
        assert doc["result"] == {"member": brute_pushforward_membership(w, d, echoed)}

    @given(st.data(), small_weights())
    @settings(max_examples=40, deadline=None)
    def test_wt(self, data, w):
        text, expected = draw_polynomial(data, w)
        code, doc = run_json("wt", *weight_args(w), "--", text)
        if not expected:
            assert code == 2
            assert doc["error"]["code"] == "ZERO_POLYNOMIAL"
            return
        assert code == 0
        least = min(sum(map(operator.mul, w.entries, m.exponents)) for m, _ in expected)
        assert doc["result"] == {"sigma_wt": least}

    @given(st.data(), st.integers(1, 6), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_normality_check(self, data, L, d):
        # Entries up to 4 and L up to 6 keep the oracle's power small.
        entries = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        if math.gcd(*entries) != 1:
            entries[0] = 1
        w = Weight(tuple(entries) + (0,) * data.draw(st.integers(0, 1)))
        code, doc = run_json("normality", *weight_args(w), "--L", str(L), "--d", str(d))
        assert code == 0
        expected = brute_power_equality(w, L, d)
        assert doc["result"] == {"mode": "check", "verdict": expected.verdict}
        if expected.equal:
            assert doc["witnesses"] == []
            return
        assert doc["witnesses"] == [brute_format_monomial(expected.witness)]
        # The witness checked on its own terms: it weighs at least d*L, and
        # no product of d minimal monomials of weight >= L divides it.
        ((g, c),) = brute_parse_polynomial(doc["witnesses"][0], w.n).terms
        assert c == 1
        assert sum(map(operator.mul, w.entries, g.exponents)) >= d * L
        base = minimalize(map(Monomial, brute_box_gens(w.entries, L)), w.n)
        assert not contains_monomial(ideal_power(base, d), g)

    @given(st.data(), st.integers(2, 3), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_normality_find(self, data, d_max, L_max):
        # The same small weights as above, scanned in full by the oracle.
        entries = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        if math.gcd(*entries) != 1:
            entries[0] = 1
        w = Weight(tuple(entries) + (0,) * data.draw(st.integers(0, 1)))
        argv = ["--d-max", str(d_max), "--L-max", str(L_max)]
        code, doc = run_json("normality", *weight_args(w), *argv)
        assert code == 0
        expected = next(
            (
                L
                for L in range(1, L_max + 1)
                if all(brute_power_equality(w, L, d).equal for d in range(2, d_max + 1))
            ),
            None,
        )
        inputs = {"weight": list(w.entries), "n": w.n, "d_max": d_max, "L_max": L_max}
        assert doc["inputs"] == inputs
        assert doc["result"] == {"mode": "find", "normality_index": expected}
        assert doc["witnesses"] == []

    @given(st.data(), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_symbolic(self, data, n, t):
        ideal = data.draw(prime_radical_ideals(n))
        text = ",".join(map(brute_format_monomial, ideal.generators))
        code, doc = run_json("symbolic", "--gens", text, "--n", str(n), "--t", str(t))
        assert code == 0
        result = doc["result"]
        assert result["radical_vars"] == sorted(brute_as_primary(ideal))
        # The oracle reads only the ideal and the radical checked just above.
        sym, verdict = brute_compare_symbolic_power(PrimaryMonomialIdeal(ideal), t)
        assert result["symbolic_generators"] == list(map(brute_format_monomial, sym.generators))
        assert result["verdict"] == ("EQUAL" if verdict.witness is None else "NOT_EQUAL")
        witnesses = [] if verdict.witness is None else [brute_format_monomial(verdict.witness)]
        assert doc["witnesses"] == witnesses

    @given(small_weights(), st.integers(1, 6), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_symbolic_weight(self, w, L, t):
        code, doc = run_json("symbolic", *weight_args(w), "--L", str(L), "--t", str(t))
        assert code == 0
        ideal = minimalize(map(Monomial, brute_box_gens(w.entries, L)), w.n)
        result = doc["result"]
        assert result["radical_vars"] == sorted(brute_as_primary(ideal))
        sym, verdict = brute_compare_symbolic_power(PrimaryMonomialIdeal(ideal), t)
        assert result["symbolic_generators"] == list(map(brute_format_monomial, sym.generators))
        # I_L holds a pure power of each positive-weight variable and involves
        # no other, so saturating removes nothing and the powers agree.
        assert verdict.equal
        assert result["verdict"] == "EQUAL"
        assert doc["witnesses"] == []

    @given(small_weights())
    @settings(max_examples=40, deadline=None)
    def test_terminal_weight(self, w):
        code, doc = run_json("terminal", *weight_args(w))
        assert code == 0
        # Chart i is 1/a_i(-a_1, ..., 1, ..., -a_n), built here from the weight.
        expected = []
        for i, (ai, ages) in enumerate(zip(w.nonzero, brute_chart_ages(w)), start=1):
            if w.n == 3:
                twists = tuple(1 if j == i else -a for j, a in enumerate(w.entries, 1))
                terminal = terminal_lemma(ai, twists)
            else:
                terminal = all(age > 1 for age in ages)
            expected.append({"index": i, "order": ai, "terminal": terminal})
        verdict = all(chart["terminal"] for chart in expected)
        assert doc["result"] == {"mode": "blowup", "terminal": verdict, "charts": expected}

    @given(st.data(), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_terminal(self, data, r):
        twists = data.draw(st.tuples(*[st.integers(-r, 2 * r)] * 3))
        assume(brute_ill_formed_coordinate(r, twists) is None)
        # A value that starts with '-' is attached with '=', or argparse reads a flag.
        code, doc = run_json("terminal", "--r", str(r), "--twists=" + ",".join(map(str, twists)))
        assert code == 0
        assert doc["inputs"] == {"r": r, "twists": [b % r for b in twists]}
        sums = [sum(j * b % r for b in twists) for j in range(1, r)]
        assert doc["result"] == {
            "mode": "quotient",
            "terminal": terminal_lemma(r, twists),
            "ages": [str(Fraction(s, r)) for s in sums],
        }

    @given(st.data(), st.integers(2, 8), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_profile(self, data, n, b):
        r = data.draw(st.integers(0, n - 2))
        code, doc = run_json("profile", "--n", str(n), "--r", str(r), "--b", str(b))
        assert code == 0
        assert doc["inputs"] == {"n": n, "r": r, "b": b}
        entries = (1, 1) + (b,) * r + (0,) * (n - r - 2)
        ages = brute_chart_ages(Weight(entries))
        assert doc["result"] == {
            "tau": str(r + Fraction(1, b)),
            "weight": list(entries),
            "center_codim": r + 2,
            "fiber_dim": r + 1,
            "discrepancy": r * b + 1,
            "cartier_index": math.lcm(*entries[: r + 2]),
            "terminal": all(age > 1 for chart in ages for age in chart),
            "all_checks_pass": True,
        }
        assert all(check["passed"] for check in doc["checks"])


# Text draws any character, "\n" and non-ASCII ones included.
_SCALARS = st.none() | st.booleans() | st.integers() | st.text(max_size=8)
# Lists of scalars alone take the C encoder's route; mixed lists recurse.
_DOCUMENTS = st.recursive(
    _SCALARS | st.lists(_SCALARS, max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


class TestRenderJson:
    """The --json renderer gives the bytes of ``json.dumps(doc, indent=2)``."""

    @staticmethod
    def rendered(doc) -> str:
        pieces: list[str] = []
        _render_json(doc, "", pieces.append)
        return "".join(pieces)

    @given(_DOCUMENTS)
    @settings(max_examples=300)
    def test_matches_json_dumps(self, doc):
        assert self.rendered(doc) == json.dumps(doc, indent=2)

    def test_examples(self):
        doc = {
            "k\u00e9y\n": [[], {}, [1, "\u00e9\n"], {"a": [True, None]}, "x"],
            "scalars": ["snow \u2603", "line\nbreak", 10**20, -3, False, None],
            "empty": [],
            "nested": {"": {}},
        }
        assert self.rendered(doc) == json.dumps(doc, indent=2)
        assert self.rendered((1, (2, 3), ())) == json.dumps((1, (2, 3), ()), indent=2)


def _materialized(value):
    """The document with each ``_Deferred`` replaced by the list of its strings."""
    if isinstance(value, _Deferred):
        return value.texts(value.items)
    if isinstance(value, dict):
        return {key: _materialized(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_materialized(item) for item in value]
    return value


def _plain(doc: dict) -> str:
    """The plain lines of a materialized document, each list joined whole."""
    lines = []
    for key, value in doc["result"].items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for entry in value:
                lines.append(f"{key}[]: " + ", ".join(f"{k}={v}" for k, v in entry.items()))
        elif isinstance(value, list):
            lines.append(f"{key}: {', '.join(str(v) for v in value)}")
        else:
            lines.append(f"{key}: {value}")
    if doc["witnesses"]:
        lines.append("witness: " + ", ".join(doc["witnesses"]))
    return "".join(line + "\n" for line in lines)


class TestBlocks:
    """Lists around the block size render as the whole lists would, in either mode."""

    # Age sums over a composite order, so that many print reduced.
    R = 2 * 3 * 5 * 7

    @classmethod
    def document(cls, m: int, blocks: list[int]) -> dict:
        def recorded(texts):
            def inner(items):
                blocks.append(len(items))
                return texts(items)

            return inner

        exps = [(i % 3, i // 3 % 4, i // 12) for i in range(m)]
        sums = [(7 * j) % (3 * cls.R) for j in range(1, m + 1)]
        monomials = recorded(_format_monomials)
        names = [f"x{i}\n\u00e9" for i in range(m)]
        result = {
            "weight": list(range(m)),
            "names": names,
            "generators": _Deferred(exps, monomials),
            "ages": _Deferred(sums, recorded(partial(_age_texts, cls.R))),
            "charts": [{"index": 1, "map": _Deferred(exps, monomials), "order": m}],
            "count": m,
        }
        # Plain lines leave out the inputs; JSON renders a tuple as a list.
        inputs = {"names": tuple(names)}
        return {"inputs": inputs, "result": result, "witnesses": ["x1"], "checks": []}

    @pytest.mark.parametrize("m", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_matches_the_materialized_document(self, m):
        blocks: list[int] = []
        whole = _materialized(self.document(m, blocks))
        pieces: list[str] = []
        _render_json(self.document(m, blocks), "", pieces.append)
        assert "".join(pieces) == json.dumps(whole, indent=2)
        pieces.clear()
        _render_human(self.document(m, blocks), pieces.append)
        assert "".join(pieces) == _plain(whole)
        # Three deferred lists materialized once, then formatted block by block twice.
        formatted = blocks[3:]
        assert sum(formatted) == 6 * m
        assert all(0 < size <= _BLOCK for size in formatted)
        assert len(formatted) == 6 * -(-m // _BLOCK)

    def test_writes_no_piece_longer_than_a_block(self):
        # Items are separated by a newline in JSON (names escape theirs) and
        # by ", " in plain lines; a written piece holds at most one block.
        doc = self.document(2 * _BLOCK + 1, [])
        pieces: list[str] = []
        _render_json(doc, "", pieces.append)
        assert max(piece.count("\n") for piece in pieces) <= _BLOCK
        pieces.clear()
        _render_human(doc, pieces.append)
        assert max(piece.count(", ") for piece in pieces) < _BLOCK


class TestMemory:
    """Long documents are written a block at a time, not held whole."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["terminal", "--r", "100003", "--twists", "1,2,3", "--json"],
            ["ideal", "--weight", "1,1,1,1,1", "--n", "5", "--d", "30", "--json"],
        ],
        ids=["terminal", "ideal"],
    )
    def test_peak_stays_below_the_document(self, argv):
        # The documents take 2.3 and 0.9 MB as text; whole, with their list
        # of strings, they peaked near 13 MB.
        _minimal_ideal.cache_clear()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                status = main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert status == 0
        assert peak < 8 * 2**20, peak


_CI_IDEAL = "x1^6,x2^5,x3^4,x1^2*x4^12,x2*x3*x5^11,x1*x2*x4^3*x5^7"


class TestConsoleScript:
    # tests/conftest.py puts src/ on the path of this process only, so a
    # subprocess finds the package through its environment.
    env = {**os.environ, "PYTHONPATH": str(Path(wblowup.__file__).resolve().parent.parent)}

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wblowup.cli", "wt", "--weight", "1,1", "--n", "2", "x1"],
            capture_output=True,
            text=True,
            env=self.env,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "sigma_wt: 1"

    @pytest.mark.parametrize(
        "argv, exit_code, witness, summary",
        [
            (
                ["normality", "--strict", "--weight", "10,14,35", "--n", "3"]
                + ["--L", "70", "--d", "2"],
                1,
                "x1^5*x2^4*x3",
                {"mode": "check", "verdict": "NOT_EQUAL"},
            ),
            (
                ["symbolic", "--gens", _CI_IDEAL, "--n", "5", "--t", "4"],
                0,
                "x1^8",
                {"radical_vars": [1, 2, 3], "symbolic_generators": 41, "verdict": "NOT_EQUAL"},
            ),
            (
                ["symbolic", "--gens", _CI_IDEAL, "--n", "5", "--t", "8"],
                0,
                "x1^16",
                {"radical_vars": [1, 2, 3], "symbolic_generators": 145, "verdict": "NOT_EQUAL"},
            ),
        ],
        ids=["normality-strict", "symbolic-t4", "symbolic-t8"],
    )
    def test_optimized_interpreter(self, argv, exit_code, witness, summary):
        # Under python -O asserts are stripped, so every invariant the
        # answer depends on has to be an explicit raise.
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "wblowup.cli", *argv, "--json"],
            capture_output=True,
            text=True,
            env=self.env,
        )
        assert proc.returncode == exit_code, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["witnesses"] == [witness]
        result = doc["result"]
        if "symbolic_generators" in result:
            result["symbolic_generators"] = len(result["symbolic_generators"])
        assert result == summary
