"""No dead imports: every name a `bsme` module imports is used in it.

There is no linter in the toolchain, so this walks each module's syntax tree.
Package `__init__` files are skipped, since importing to re-export is their job.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bsme"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    dead = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not dead, f"{path.name} imports but never uses: {dead}"


def test_checker_sees_dead_and_live_imports():
    tree = ast.parse(
        "import os\nimport os.path as osp\nfrom typing import Any, List\n"
        "def f(x: List[int]) -> None:\n    return osp.join(x)\n"
    )
    used = used_names(tree)
    dead = {n for n in imported_names(tree) if n not in used}
    assert dead == {"os", "Any"}
