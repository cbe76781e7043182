"""Smoke runs of the scripts under scripts/, each with small arguments."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name: str):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_normality_search(capsys):
    argv = ["--weights", "10,14,35", "--n", "3", "--d-max", "2", "--L-max", "150"]
    assert _main("normality_search")(argv) == 0
    row = capsys.readouterr().out.splitlines()[-1]
    assert row.split() == ["(10,14,35)", "70", "140", "2"]


def test_profile_sweep(capsys):
    assert _main("profile_sweep")(["--n-max", "4", "--b-max", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 12
    assert all(row.split()[-1] == "ok" for row in rows)


def test_symbolic_gap_search(capsys):
    assert _main("symbolic_gap_search")(["--trials", "100"]) == 0
    out = capsys.readouterr().out
    assert "6 strict gaps in 25 prime-radical ideals" in out
