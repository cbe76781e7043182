"""Every name imported in src/ and tests/ is used in its module."""

from __future__ import annotations

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
# The package's __init__ has no __all__: its imports are the public namespace.
_SKIP = {_ROOT / "src" / "wblowup" / "__init__.py"}


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        alias.asname or alias.name.split(".")[0]
        for alias in node.names
        if alias.name != "*"
    ]


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__``."""
    out: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(
                c.value
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return out


def unused_imports(path: Path) -> list[str]:
    """Imported names of ``path`` that no expression refers to and ``__all__`` omits."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: list[str] = []
    used = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.extend(_bound_names(node))
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [name for name in imported if name not in used]


def _sources() -> list[Path]:
    files = sorted((_ROOT / "src").rglob("*.py")) + sorted((_ROOT / "tests").rglob("*.py"))
    return [p for p in files if p not in _SKIP]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(_ROOT)}: {name}"
        for path in _sources()
        for name in unused_imports(path)
    ]
    assert found == []


def test_scan_sees_both_kinds_of_use(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import gcd, lcm\n"
        "from fractions import Fraction\n"
        "__all__ = ['Fraction']\n"
        "print(os.path.sep, gcd(2, 4))\n"
    )
    assert unused_imports(src) == ["j", "lcm"]
