"""Command line interface: documents, exit codes, error codes."""

from __future__ import annotations

import json

import pytest

from wblowup.cli import main


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
        assert doc["result"]["mode"] == "blowup"
        assert doc["result"]["terminal"] is True

    def test_ill_formed_action(self, capsys):
        code, doc = run(
            capsys, "terminal", "--json", "--r", "4", "--twists", "2,2"
        )
        assert code == 2
        assert doc["error"]["code"] == "ILL_FORMED_ACTION"

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

    def test_parse_error(self, capsys):
        code, doc = run(
            capsys, "wt", "--json", "--weight", "1,1", "--n", "2", "2x1"
        )
        assert code == 2
        assert doc["error"]["code"] == "PARSE_ERROR"
        assert "position" in doc["error"]["message"]

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

    def test_error_plain(self, capsys):
        code, out = run_text(capsys, "ideal", "--weight", "2,4", "--n", "2", "--d", "1")
        assert code == 2
        assert out.startswith("error[INVALID_WEIGHT]")


class TestConsoleScript:
    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "wblowup.cli", "wt", "--weight", "1,1", "--n", "2", "x1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "sigma_wt: 1"
