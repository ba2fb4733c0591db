"""Every name a module of the package imports is used there."""

import ast
from pathlib import Path

import pytest

import classent

MODULES = sorted(p for p in Path(classent.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by import statements (``__future__`` aside) that no other node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    source = "from .classicalize import DEFAULT_GRID, delta\nimport numpy as np\n\ndelta(np)\n"
    assert _unused_imports(source) == ["DEFAULT_GRID (line 1)"]
