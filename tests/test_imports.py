"""No dead imports, no dead private helpers and no public code only tests reach.

Every name a `bsme` module imports is used in it, and every `_`-prefixed
function, class, method or module-level name is referenced somewhere in the
package besides its own definition.  Every public module-level function and
class has a caller in the system: the package, the benchmark, the console
script, or the acceptance criteria.  No module under `bsme/app/` imports the
protocol math (`hashing`, `gf2`, `ihash`, `subsets`), and no module outside
it imports `app` or any module in it.  Outside `app/framing.py`, only
`app/runner.py` names `encode_message` or `decode_message`.  The protocol
modules (`commit`, `ot`, `ihash`) define no exception class, so every
refusal is a `SetupAbort`.  Each module's `__all__` lists only names it
defines, and the package root re-exports only names that the benchmark or
the tests import from `bsme`.  There is no linter in the toolchain, so this
walks each module's syntax tree.  Package `__init__` files are skipped by
the import check, since importing to re-export is their job.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bsme"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def package_trees() -> dict[str, ast.Module]:
    """Every module of the package, `__init__` files included, by path under `bsme/`."""
    return {
        str(p.relative_to(SRC)): ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(SRC.rglob("*.py"))
    }


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


# Protocol math stays behind the protocol modules; `app` only drives them.
PROTOCOL_MATH = {"hashing", "gf2", "ihash", "subsets"}


def imported_modules(tree: ast.Module) -> set[str]:
    """Last component of every module an `import` or `from ... import` names,
    and the names a bare `from . import` brings in."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.rsplit(".", 1)[-1])
            else:
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("path", sorted((SRC / "app").glob("*.py")), ids=lambda p: p.name)
def test_app_imports_no_protocol_math(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    math_used = imported_modules(tree) & PROTOCOL_MATH
    assert not math_used, f"app/{path.name} imports protocol math: {sorted(math_used)}"


def test_checker_sees_protocol_math_imports():
    tree = ast.parse(
        "from ..hashing import ToeplitzHash\nfrom .. import gf2\n"
        "import bsme.ihash\nfrom ..commit import Committer\nfrom .framing import SetA\n"
    )
    assert imported_modules(tree) & PROTOCOL_MATH == {"hashing", "gf2", "ihash"}


# The protocols know nothing about wires: only `app` imports `app`.
APP = {"app", "framing", "channel", "runner", "cli"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_protocols_import_no_app(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    app_used = imported_modules(tree) & APP
    assert not app_used, f"{path.name} imports from app: {sorted(app_used)}"


def test_checker_sees_app_imports():
    tree = ast.parse(
        "from .app import runner\nfrom .app.framing import SetA\nimport bsme.app.cli\n"
        "from . import channel\nfrom .reasons import ResultMsg\n"
    )
    assert imported_modules(tree) & APP == {"app", "framing", "cli", "channel"}


# Frames are made, read and recorded in one module: the runner.
FRAMING = {"encode_message", "decode_message"}


def framing_users(trees: dict[str, ast.Module]) -> set[str]:
    """Modules other than `app/framing.py` that name a frame codec, by
    import, call or attribute."""
    return {
        where for where, tree in trees.items()
        if where != "app/framing.py" and referenced_names(tree) & FRAMING
    }


def test_only_the_runner_frames():
    assert framing_users(package_trees()) == {"app/runner.py"}


def test_checker_sees_framing_users():
    trees = {
        "app/framing.py": ast.parse("def encode_message(m):\n    return decode_message(m)\n"),
        "app/runner.py": ast.parse("from .framing import encode_message\n"),
        "app/channel.py": ast.parse("from . import framing\nframing.decode_message(b'')\n"),
        "app/cli.py": ast.parse("from .framing import read_frame\nread_frame(f)\n"),
    }
    assert framing_users(trees) == {"app/runner.py", "app/channel.py"}


# A party refuses with `SetupAbort(reason)` and nothing else.
REFUSING = ("commit.py", "ot.py", "ihash.py")


def exception_classes(tree: ast.Module) -> set[str]:
    """Classes whose base is named like an exception (`...Error`,
    `...Exception`, `...Abort`) or is such a class defined earlier."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = {getattr(b, "id", getattr(b, "attr", "")) for b in node.bases}
            if bases & found or any(re.search(r"(Error|Exception|Abort)$", b) for b in bases):
                found.add(node.name)
    return found


@pytest.mark.parametrize("name", REFUSING)
def test_protocols_define_no_exception(name):
    defined = exception_classes(ast.parse((SRC / name).read_text(encoding="utf-8")))
    assert not defined, f"{name} defines exception classes: {sorted(defined)}"


def test_checker_sees_exception_classes():
    tree = ast.parse(
        "class Refusal(SetupAbort):\n    pass\n"
        "class Worse(Refusal):\n    pass\n"
        "class Odd(errors.ProtocolError, Mixin):\n    pass\n"
        "class Plain(BaseException):\n    pass\n"
        "@dataclass\nclass Outcome(Base):\n    ok: bool\n"
        "class Message:\n    pass\n"
    )
    assert exception_classes(tree) == {"Refusal", "Worse", "Odd", "Plain"}


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
    dead = dead_private_names(package_trees())
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


def public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    return {
        node.name: node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def name_uses(nodes) -> set[str]:
    """`referenced_names` plus strings that are identifiers, such as the
    attribute names the benchmark's span table wraps."""
    refs = set()
    for node in nodes:
        refs |= referenced_names(node)
        refs.update(
            n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier()
        )
    return refs


def is_all_assignment(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def dead_public_names(trees: dict[str, ast.Module], outside: set[str]) -> list[str]:
    """Public module-level functions and classes that no package module
    outside the definition itself uses, and that are not in ``outside``.
    Package `__init__` files and `__all__` lists are skipped: a re-export is
    not a caller."""
    modules = {where: tree for where, tree in trees.items() if Path(where).name != "__init__.py"}
    # the names each top-level statement uses, so a definition's own body can be left out
    stmt_uses = {
        where: [(n, name_uses([n])) for n in tree.body if not is_all_assignment(n)]
        for where, tree in modules.items()
    }
    dead = []
    for where, tree in modules.items():
        for name, node in public_definitions(tree).items():
            used = name in outside or any(
                name in uses for stmts in stmt_uses.values() for n, uses in stmts
                if n is not node
            )
            if not used:
                dead.append(f"{where}:{node.lineno} {name}")
    return sorted(dead)


def test_no_public_names_only_tests_reach():
    """Methods are out of scope: a name-based check cannot tell them apart
    where names collide (`row`, `bit`, `support`), so it would pass dead ones."""
    trees = package_trees()
    callers = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "bench").rglob("*.py"))]
    callers.append(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))
    # console scripts: `name = "module:function"` under [project.scripts]
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.findall(r'^[\w-]+\s*=\s*"[\w.]+:(\w+)"', pyproject, re.M)
    outside = name_uses(callers) | set(scripts)
    dead = dead_public_names(trees, outside)
    assert not dead, f"public names only tests reach: {dead}"


def test_checker_sees_dead_and_live_public_names():
    lib = ast.parse(
        "def called_here(x):\n    return x\n"
        "def run(x):\n    return called_here(x)\n"
        "def called_elsewhere():\n    pass\n"
        "def by_outside():\n    pass\n"
        "def reexported():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class SelfTyped:\n    def copy(self) -> 'SelfTyped':\n        return SelfTyped()\n"
        "def exported_only():\n    pass\n"
        "def _private():\n    pass\n"
        "__all__ = ['run', 'exported_only']\n"
    )
    user = ast.parse("from .lib import called_elsewhere\ncalled_elsewhere()\n")
    init = ast.parse("from .lib import reexported\n__all__ = ['reexported']\n")
    trees = {"lib.py": lib, "user.py": user, "__init__.py": init}
    dead = {entry.split()[-1] for entry in dead_public_names(trees, {"by_outside", "run"})}
    assert dead == {"reexported", "recursive", "SelfTyped", "exported_only"}


# One home per name: a module exports what it defines, and the package root
# re-exports only what the repository imports from `bsme` itself.
def exported_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if is_all_assignment(node):
            return [elt.value for elt in node.value.elts]
    return []


def defined_names(tree: ast.Module) -> set[str]:
    """Module-level functions, classes and assigned names."""
    found = set(public_definitions(tree))
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            found.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return found


def root_imports(trees: list[ast.Module]) -> set[str]:
    """Names imported by `from bsme import ...`."""
    return {
        alias.name for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "bsme" and not node.level
        for alias in node.names
    }


def foreign_exports(trees: dict[str, ast.Module]) -> list[str]:
    """Names a module other than a package `__init__` lists in `__all__`
    without defining them."""
    return sorted(
        f"{where} {name}"
        for where, tree in trees.items() if Path(where).name != "__init__.py"
        for name in set(exported_names(tree)) - defined_names(tree)
    )


def test_root_reexports_only_what_is_imported_from_it():
    root = exported_names(package_trees()["__init__.py"])
    users = [ast.parse(p.read_text(encoding="utf-8"))
             for d in ("bench", "tests") for p in sorted((ROOT / d).rglob("*.py"))]
    unused = set(root) - {"__version__"} - root_imports(users)
    assert not unused, f"bsme re-exports names nothing imports from it: {sorted(unused)}"


def test_modules_export_only_their_own_names():
    foreign = foreign_exports(package_trees())
    assert not foreign, f"__all__ lists names defined elsewhere: {foreign}"


def test_checker_sees_root_imports_and_foreign_exports():
    users = [ast.parse("from bsme import A, B as C\nfrom bsme.x import D\nfrom . import E\n"
                       "import bsme\n")]
    assert root_imports(users) == {"A", "B"}
    lib = ast.parse(
        "from .other import Borrowed\n"
        "def f():\n    pass\n"
        "class K:\n    pass\n"
        "LIMIT = 3\nA, B = 1, 2\nTYPED: int = 4\n"
        "__all__ = ['f', 'K', 'LIMIT', 'B', 'TYPED', 'Borrowed', 'missing']\n"
    )
    init = ast.parse("from .lib import f\n__all__ = ['f']\n")
    assert foreign_exports({"lib.py": lib, "__init__.py": init}) == [
        "lib.py Borrowed", "lib.py missing"]
