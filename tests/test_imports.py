"""Import hygiene: no module of the package imports a name it never uses.

This stands in for a linter's unused-import rule (F401).  `__init__.py`
re-exports by design, and so does any import statement whose first line
carries `# noqa: F401`.
"""

import ast
from pathlib import Path

import pytest

import mapmerge

MODULES = sorted(p for p in Path(mapmerge.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by import statements of `source` that no name in it reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        and "# noqa: F401" not in lines[node.lineno - 1]
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_finds_an_unused_import():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os, sys",
            "from a import (  # noqa: F401",
            "    b,",
            ")",
            "sys.exit()",
        ]
    )
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
