"""Smoke runs of the scripts under scripts/, each with small arguments."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(name: str):
    return _load(name).main


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


# Eleven code lines: the import, the class and its attribute, the def, the
# four lines of the bracketed expression, both lines of the string that is
# not a docstring, and the return.  Docstrings, comments and blanks count none.
_FIXTURE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment


class Shape:
    """Class docstring."""

    sides = 3

    def area(self, r):
        """Function docstring,
        on two lines."""
        # A comment line.

        total = (
            math.pi
            * r**2
        )
        note = """a string
that is not a docstring"""
        return total, note
'''


def test_code_lines_counts_a_fixture(tmp_path, capsys):
    module = _load("code_lines")
    assert module.code_lines(_FIXTURE) == 11
    assert module.code_lines("") == 0
    (tmp_path / "b.py").write_text(_FIXTURE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert module.run(tmp_path) == 12
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "1"], ["b.py", "11"], ["total", "12"]]


def test_code_lines(capsys):
    assert _main("code_lines")([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(path.name for path in (_SCRIPTS.parent / "src" / "wblowup").glob("*.py"))
    assert [name for name, _ in rows] == [*modules, "total"]
    counts = [int(count.replace(",", "")) for _, count in rows]
    assert counts[-1] == sum(counts[:-1]) > 0
