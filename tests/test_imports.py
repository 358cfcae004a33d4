"""Every name a module imports is read somewhere in that module.

No linter runs over the package, so an import left behind by a deletion
would otherwise stay unnoticed. ``__init__.py`` is exempt: it imports
names only to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "smtl"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_guard_sees_an_unused_import():
    source = ("import os\nimport sys\nfrom json import dumps, loads\n"
              "sys.exit(loads)\n")
    assert _unused_imports(source) == [(1, "os"), (3, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert _unused_imports(path.read_text()) == []
