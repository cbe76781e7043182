"""Every name imported in src/, tests/, scripts/ and benchmark/ is used in its module;
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
    tops = ("src", "tests", "scripts", "benchmark")
    return [p for top in tops for p in sorted((_ROOT / top).rglob("*.py"))]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(_ROOT)}: {name}"
        for path in _sources()
        for name in unused_imports(path)
    ]
    assert found == []


# The modules whose ``__all__`` the package star-imports, in import order.
_MODULES = tuple(
    node.module
    for node in ast.parse((_ROOT / "src" / "wblowup" / "__init__.py").read_text()).body
    if isinstance(node, ast.ImportFrom) and node.names[0].name == "*"
)


def test_package_namespace():
    owner: dict[str, str] = {}
    for name in _MODULES:
        module = sys.modules[f"wblowup.{name}"]
        for public in module.__all__:
            assert public not in owner, (public, owner.get(public), name)
            owner[public] = name
            assert getattr(wblowup, public) is getattr(module, public), (name, public)
    # `ideals_equal` and `format_weight`, plain `==` and a join, live in tests/oracles.py.
    # So does `grlex_key`, the per-monomial key of the order the library sorts in.
    # The charts of a blow-up are the tuple `charts(w)`, with no atlas type.
    assert len(owner) == 53
    assert "BlowupAtlas" not in owner
    assert not {"ideals_equal", "format_weight", "grlex_key"} & set(dir(wblowup))
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
