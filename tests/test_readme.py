"""The README's library and command-line examples run, and what they show holds."""

from __future__ import annotations

import ast
import io
import json
import shlex
import tokenize
from pathlib import Path

from wblowup.cli import main

_README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    """The first python code block under the ``## Library`` heading."""
    section = _README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_example_values():
    source = _library_example()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = comments.get(stmt.end_lineno)
        if comment is None:
            continue
        try:
            expected = eval(comment, namespace)
        except (SyntaxError, NameError):  # prose, such as "(1, 6, 5), order 10"
            continue
        assert value == expected, (ast.unparse(stmt), value, comment)
        checked += 1
    assert checked >= 9


def _command_line_blocks() -> tuple[str, str]:
    """The sh block and the JSON sample under the ``## Command line`` heading."""
    section = _README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    sh = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    sample = section.split("```json\n", 1)[1].split("\n```", 1)[0]
    return sh, sample


def test_command_line_examples(capsys):
    sh, sample = _command_line_blocks()
    commands: list[tuple[list[str], list[str]]] = []
    for line in sh.splitlines():
        if line.startswith("wblowup "):
            commands.append((shlex.split(line)[1:], []))
        elif line.startswith("# "):
            commands[-1][1].append(line[2:])
        else:
            assert not line.strip(), line
    documents = []
    for argv, shown in commands:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if "--json" in argv:
            documents.append(json.loads(out))
        if shown:
            assert out.splitlines() == shown, argv
    assert len(commands) >= 9
    assert sum(bool(shown) for _, shown in commands) >= 3
    assert documents == [json.loads(sample)]
