"""Every name that a module of the package imports is read in that module.

An import line marked `# noqa: F401` is exempt: it keeps bound a name that
perfbench/tracing.py rebinds.  The package's __init__ imports names to
export them and is not checked.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qdilog"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unread_imports(path: pathlib.Path) -> list:
    """(line, name) of each imported name that the module never reads."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported.append((node.lineno, (alias.asname or alias.name).split(".")[0]))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(line, name) for line, name in imported if name not in read]


def test_every_module_is_checked():
    assert {"contour.py", "core.py", "suites.py", "symbolic.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    assert _unread_imports(SRC / module) == []


def test_an_unread_import_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os  # noqa: F401\n"
        "from json import dumps, loads\n"
        "print(math.pi, loads)\n"
    )
    assert _unread_imports(path) == [(4, "dumps")]
