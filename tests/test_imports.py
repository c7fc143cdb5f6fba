"""No dead imports and no dead private helpers in `bsme`.

Every name a `bsme` module imports is used in it, and every `_`-prefixed
function, class, method or module-level name is referenced somewhere in the
package besides its own definition.  There is no linter in the toolchain, so
this walks each module's syntax tree.  Package `__init__` files are skipped by
the import check, since importing to re-export is their job.
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


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """`_name` functions, classes and methods anywhere, and module-level `_name` assignments."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                found[target.id] = node.lineno
    return {n: line for n, line in found.items() if n.startswith("_") and not n.startswith("__")}


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read anywhere: bare names, attributes and imported names."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def dead_private_names(trees: dict[str, ast.Module]) -> list[str]:
    refs = set().union(*(referenced_names(t) for t in trees.values()))
    return sorted(
        f"{where}:{line} {name}"
        for where, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in refs
    )


def test_no_dead_private_helpers():
    trees = {
        str(p.relative_to(SRC)): ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(SRC.rglob("*.py"))
    }
    dead = dead_private_names(trees)
    assert not dead, f"private names nothing in bsme references: {dead}"


def test_checker_sees_dead_and_live_private_names():
    tree = ast.parse(
        "_LIMIT = 3\n_UNUSED = 4\n"
        "def _live(x):\n    return x < _LIMIT\n"
        "def _dead():\n    pass\n"
        "class _Base:\n    def _hook(self):\n        pass\n    def _orphan(self):\n        pass\n"
        "class Child(_Base):\n    def run(self):\n        return _live(self._hook())\n"
    )
    dead = {entry.split()[-1] for entry in dead_private_names({"m.py": tree})}
    assert dead == {"_UNUSED", "_dead", "_orphan"}
