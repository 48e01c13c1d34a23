"""Static checks of the package source: every imported name is used, and
no module imports the test-side reference kernels or anything else from
``tests``.  The scalar oracles in ``tests/reference_kernels.py`` take from
``liegeom`` only the value types, the scalar forms that keep their own
bodies and the private constants, never an array form they are pinned
against.  Every public name of the package, and every ``posecorrect``
import of the perfbench harness and the scripts, resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import posecorrect

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "posecorrect"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REFERENCE_KERNELS = Path(__file__).resolve().parent / "reference_kernels.py"
# What the oracles may import from liegeom, beside its private constants.
ORACLE_LIEGEOM = {"Pose", "Rotation", "so3_exp", "euler_zyx_to", "slerp"}
CALLERS = sorted([*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def imports(tree):
    """``(line, module, bound name)`` of every import in ``tree``; the module
    of a relative import starts with its dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            prefix = "." * node.level + (f"{node.module}." if node.module else "")
            for alias in node.names:
                yield node.lineno, prefix + alias.name, alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line}: {name}" for line, _, name in imports(tree) if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_from_the_tests(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bad = [
        f"{path.name}:{line}: {module}"
        for line, module, _ in imports(tree)
        if module.split(".")[0] == "tests" or "reference_kernels" in module.split(".")
    ]
    assert not bad, "the package imports test code: " + ", ".join(bad)


def liegeom_names():
    """The names that ``liegeom`` defines at module level."""
    tree = ast.parse((PACKAGE / "liegeom.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def forbidden_liegeom_uses(tree):
    """Where ``tree`` imports the ``liegeom`` module itself, or a ``liegeom``
    name (from any ``posecorrect`` module) that is neither in
    :data:`ORACLE_LIEGEOM` nor a private constant such as ``_SMALL_ANGLE``."""
    defined = liegeom_names()
    for line, module, _ in imports(tree):
        parts = module.split(".")
        name = parts[-1]
        if parts[0] != "posecorrect":
            continue
        if name == "liegeom" or (
            name in defined and name not in ORACLE_LIEGEOM
            and not (name.startswith("_") and name.isupper())
        ):
            yield f"{line}: import {module}"


def test_reference_kernels_use_no_array_form():
    tree = ast.parse(REFERENCE_KERNELS.read_text(encoding="utf-8"))
    bad = list(forbidden_liegeom_uses(tree))
    assert not bad, "reference_kernels.py imports from liegeom beyond its scalar forms: " + ", ".join(bad)


@pytest.mark.parametrize("source", [
    "from posecorrect.liegeom import Pose, so3_log_rows",
    "from posecorrect.liegeom import _math_rows",
    "from posecorrect.baseline import quat_normalize",
    "from posecorrect import liegeom\nliegeom.euler_zyx_from_rows(q)",
    "import posecorrect.liegeom",
])
def test_forbidden_liegeom_uses_finds_each_form(source):
    assert list(forbidden_liegeom_uses(ast.parse(source)))


def test_forbidden_liegeom_uses_allows_the_scalar_forms():
    source = "from posecorrect.liegeom import _GIMBAL_COS, Pose, Rotation, euler_zyx_to, slerp, so3_exp"
    assert not list(forbidden_liegeom_uses(ast.parse(source)))


def test_every_public_name_resolves():
    missing = [name for name in posecorrect.__all__ if not hasattr(posecorrect, name)]
    assert not missing, "posecorrect.__all__ names what it does not define: " + ", ".join(missing)


def code_trees(path):
    """The syntax tree of ``path`` and of every string constant in it that
    parses as Python, such as the scripts that ``scripts/*.py`` run in
    subprocesses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                continue


def resolves(module: str) -> bool:
    """Whether the dotted ``module`` (a module, or a module and a name in
    it) imports."""
    try:
        importlib.import_module(module)
        return True
    except ImportError:
        parent, _, name = module.rpartition(".")
        return hasattr(importlib.import_module(parent), name)


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_harness_and_script_imports_resolve(path):
    found = [module for tree in code_trees(path) for _, module, _ in imports(tree)
             if module.split(".")[0] == "posecorrect"]
    missing = [module for module in found if not resolves(module)]
    assert not missing, f"{path.name} imports what posecorrect does not define: " + ", ".join(missing)


def test_string_code_is_searched():
    # bench_record.py imports Trajectory only inside the code it runs in a
    # subprocess.
    modules = [module for tree in code_trees(ROOT / "scripts" / "bench_record.py")
               for _, module, _ in imports(tree)]
    assert "posecorrect.trajectory.Trajectory" in modules
