"""Import hygiene: no module of the package, no script and no test module
imports a name it never uses; importing the CLI loads no module that only
slows its start; and every module of the package is loaded by the CLI or by
a script, so none sits in the package with no program path to it.

The first stands in for a linter's unused-import rule (F401), which exempts
an import statement whose first line carries `# noqa: F401`.  The package
root re-exports nothing: every caller imports a name from its module.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import mapmerge

PACKAGE = Path(mapmerge.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
MODULES = sorted(PACKAGE.glob("*.py")) + sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("tests/*.py"))


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


def added_modules(src_env, statement: str) -> set:
    """The modules that `statement` adds to a fresh interpreter's sys.modules."""
    code = f"import sys\nbare = set(sys.modules)\n{statement}\nprint(*sorted(set(sys.modules) - bare))"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect(src_env):
    # Each dataclass generates its methods with exec, and dataclasses imports inspect, dis, ast and tokenize: for
    # the package's 39 value types that was about two thirds of the time that importing the CLI took.
    assert added_modules(src_env, "import dataclasses") >= {"dataclasses", "inspect"}
    added = added_modules(src_env, "import mapmerge.cli")
    assert "mapmerge.cli" in added and not added & {"dataclasses", "inspect"}


def test_package_import_loads_no_module_of_the_package(src_env):
    added = added_modules(src_env, "import mapmerge")
    assert "mapmerge" in added and not {m for m in added if m.startswith("mapmerge.")}


def test_every_package_module_is_loaded_by_a_program(src_env):
    # A module that neither the CLI nor a script loads, directly or through other modules, runs in no verdict.
    imports = [
        ast.unparse(node)
        for path in sorted(ROOT.glob("scripts/*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    added = added_modules(src_env, "\n".join(["import mapmerge.cli", *imports]))
    modules = [f"mapmerge.{p.stem}" for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    assert [m for m in modules if m not in added] == []
