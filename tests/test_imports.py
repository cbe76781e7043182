"""Every name imported in src/, tests/ and scripts/ is used in its module;
the package namespace is the union of its modules' ``__all__`` lists."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import wblowup

_ROOT = Path(__file__).resolve().parent.parent


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
    return [p for top in ("src", "tests", "scripts") for p in sorted((_ROOT / top).rglob("*.py"))]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(_ROOT)}: {name}"
        for path in _sources()
        for name in unused_imports(path)
    ]
    assert found == []


_MODULES = ("errors", "monomials", "weights", "symbolic", "charts", "contraction", "parsing")


def test_package_namespace():
    owner: dict[str, str] = {}
    for name in _MODULES:
        module = sys.modules[f"wblowup.{name}"]
        for public in module.__all__:
            assert public not in owner, (public, owner.get(public), name)
            owner[public] = name
            assert getattr(wblowup, public) is getattr(module, public), (name, public)
    # The star import of .charts rebinds the submodule's name to the function.
    assert wblowup.charts is sys.modules["wblowup.charts"].charts


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
