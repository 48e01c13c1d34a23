"""Static checks of the package source: every imported name is used, and
no module imports the test-side reference kernels or anything else from
``tests``.  Also, the scalar oracles in ``tests/reference_kernels.py`` use
none of the ``liegeom`` names that are one-row views of the array forms."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "posecorrect"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REFERENCE_KERNELS = Path(__file__).resolve().parent / "reference_kernels.py"
# liegeom's one-row views of its array forms, and the se(3) maps built on
# them.  An oracle that used one would compare the array forms with
# themselves.
VIEWS = {"so3_log", "so3_left_jacobian", "so3_left_jacobian_inv", "euler_zyx_from",
         "gimbal_proximity", "rotation_angle_deg", "se3_exp", "se3_log", "from_matrix", "matrix"}


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


def view_uses(tree):
    """Where ``tree`` imports one of :data:`VIEWS` from ``posecorrect`` or
    reads one as an attribute, such as ``liegeom.so3_log`` or ``r.matrix``."""
    for line, module, _ in imports(tree):
        if module.split(".")[0] == "posecorrect" and module.split(".")[-1] in VIEWS:
            yield f"{line}: import {module}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in VIEWS:
            yield f"{node.lineno}: .{node.attr}"


def test_reference_kernels_use_no_one_row_view():
    tree = ast.parse(REFERENCE_KERNELS.read_text(encoding="utf-8"))
    bad = list(view_uses(tree))
    assert not bad, "reference_kernels.py uses a liegeom view: " + ", ".join(bad)


@pytest.mark.parametrize("source", [
    "from posecorrect.liegeom import Pose, so3_log",
    "from posecorrect import rotation_angle_deg",
    "from posecorrect import liegeom\nliegeom.euler_zyx_from(r)",
    "r.matrix",
    "Rotation.from_matrix(m)",
])
def test_view_uses_finds_each_form(source):
    assert list(view_uses(ast.parse(source)))
