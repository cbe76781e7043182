"""Count the code lines of src/wblowup/, per module and in total.

A code line holds a token other than a comment or a module, class or
function docstring; blank lines hold none.  A token that spans lines, such
as a multi-line string that is not a docstring, makes each of its lines a
code line.  This is the "code lines" figure that the change log quotes.

Run:

    python3 scripts/code_lines.py
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src" / "wblowup"

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, _DOCUMENTED) and node.body):
            continue
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
            if isinstance(first.value.value, str):
                start = (first.lineno, first.col_offset)
                spans.append((start, (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token of code."""
    spans = _docstring_spans(source)
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        if any(start <= token.start and token.end <= end for start, end in spans):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def run(src: Path = _SRC) -> int:
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16} {count:>6,}")
    print(f"{'total':<16} {total:>6,}")
    return total


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    run()
    return 0


if __name__ == "__main__":
    sys.exit(main())
