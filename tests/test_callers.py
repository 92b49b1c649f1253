"""Caller check: every public module-level function and class of the package
is referenced by the program, in `src/` or `scripts/`, somewhere other than
its own definition.  `__init__.py` re-exports by design and tests are not
callers, so neither counts.  Names are matched by their bare spelling: a
name read, an attribute or an imported name.
"""

import ast
from pathlib import Path

import mapmerge

PACKAGE = Path(mapmerge.__file__).resolve().parent
SCRIPTS = PACKAGE.parents[1] / "scripts"

# Public names kept without a production caller, each with its reason.
ALLOWED = {
    "coordmap.compose": "part of the map-merge algebra that acceptance criterion 12 checks",
    "coordmap.invert": "part of the map-merge algebra that acceptance criterion 12 checks",
    "coordmap.merge_grids": "part of the map-merge algebra that acceptance criterion 12 checks",
    "world.is_enabled": "perfbench/tracer.py wraps it until the benchmark stops counting its calls",
    "scenarios.scenario_to_json": "the writer half of the scenario-file format; tests build input files with it",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def reads(module: str, source: str):
    """(name, owner) for each name `source` reads or imports; the owner is the
    `module.name` of the top-level definition it sits in, else None."""
    for top in ast.parse(source).body:
        owner = f"{module}.{top.name}" if isinstance(top, DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.alias):
                yield node.name.rpartition(".")[2], owner


def uncalled(package: dict, scripts: dict) -> list:
    """The `module.name` of each public top-level function or class of the
    `package` modules (module name -> source) that no other definition or
    statement of `package` or `scripts` references."""
    defined = [
        f"{module}.{node.name}"
        for module, source in package.items()
        for node in ast.parse(source).body
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_")
    ]
    owners: dict = {}  # name -> the owners of its reads
    for module, source in {**package, **scripts}.items():
        for name, owner in reads(module, source):
            owners.setdefault(name, set()).add(owner)
    return [qual for qual in defined if not owners.get(qual.rpartition(".")[2], set()) - {qual}]


def test_checker_finds_a_name_only_its_own_definition_reads():
    package = {
        "a": "def f(n):\n    return f(n - 1)\n\ndef g():\n    pass\n\ndef _h():\n    return g\n\nclass C:\n    pass\n",
        "b": "from .a import C\n",
    }
    assert uncalled(package, {}) == ["a.f"]
    assert uncalled(package, {"run": "import a\na.f(3)\n"}) == []


def test_every_public_name_has_a_caller():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    scripts = {p.stem: p.read_text() for p in sorted(SCRIPTS.glob("*.py"))}
    assert scripts, f"no scripts under {SCRIPTS}"
    assert sorted(set(uncalled(package, scripts)) - set(ALLOWED)) == []
