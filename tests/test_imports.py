"""Every name that a module of the package imports is read in that module.

An import line marked `# noqa: F401` is exempt: it keeps bound a name that
perfbench/tracing.py rebinds, and a test checks that the tracer does rebind
each such name.  The package's __init__ imports names to export them and is
not checked.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qdilog"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imports(path: pathlib.Path) -> list:
    """(line, name, exempt) of each name the module imports; exempt marks
    an import line with `# noqa: F401`."""
    text = path.read_text()
    lines = text.splitlines()
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        exempt = any(
            "# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
        )
        for alias in node.names:
            found.append((node.lineno, (alias.asname or alias.name).split(".")[0], exempt))
    return found


def _unread_imports(path: pathlib.Path) -> list:
    """(line, name) of each imported name that the module never reads."""
    read = {
        node.id for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        (line, name) for line, name, exempt in _imports(path)
        if not exempt and name not in read
    ]


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


def test_every_exempt_import_is_a_name_the_tracer_rebinds(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    exempt = [
        (importlib.import_module(f"qdilog.{module[:-3]}"), name)
        for module in MODULES
        for _, name, is_exempt in _imports(SRC / module)
        if is_exempt
    ]
    bound = [vars(mod)[name] for mod, name in exempt]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        kept = [
            f"{mod.__name__}.{name}"
            for (mod, name), value in zip(exempt, bound)
            if vars(mod)[name] is value
        ]
    finally:
        tracer.uninstall()
    assert exempt and kept == []
