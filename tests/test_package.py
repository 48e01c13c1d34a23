"""Static checks of the package source: every imported name is used, and
no module imports the test-side reference kernels or anything else from
``tests``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "posecorrect"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
