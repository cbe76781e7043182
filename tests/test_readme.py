"""The README's library example runs, and its value comments hold."""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

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
