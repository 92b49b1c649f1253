"""Caller check: every public module-level function and class of the package
is referenced by the program, in `src/` or `scripts/`, somewhere other than
its own definition, and so is every public method or property of those
classes, and every public attribute that such a class assigns on `self`.
Tests are not callers.  Module-level names are matched by module: `mod.f`
is read by a bare `f` in `mod` itself or in a module that imported it by
`from .mod import f` (aliased or not), and by the attribute `mod.f` or
`pkg.mod.f`; the import alone is no read.  So neither a method nor a
function of another module that shares the name is a caller.  A member
counts as read when some attribute `.f` is read outside its own body, and
an attribute assigned on `self` when some `.f` is loaded; a store is no
read.  Dunders are out of scope.
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
    "coordmap.GridMap.shifted": "part of the map-merge algebra that acceptance criterion 12 checks",
    "scenarios.scenario_to_json": "the writer half of the scenario-file format; tests build input files with it",
    "world.enabled_events": "the reference path's offered events, read by perfbench's query walk and by the tests' oracle",
    "world.RefusedEventError.blocking": "the process that refuses the event, which tests/test_world.py reads",
    "coordmap.MergeConflictError.conflicts": "the conflicting cells of a failed merge, which tests/test_coordmap.py reads",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def reads(module: str, source: str, modules: set):
    """(key, scope) for each read of `source`.  The key of a name is
    `mod.name`: for `mod.name` or `pkg.mod.name` of one of `modules`, and for
    a bare name read in `module`, where `mod` is the module it was imported
    from by `from [pkg.]mod import name` (aliased or not), else `module`
    itself.  The key of each attribute `f` loaded is `.f`.  The scope is the
    set of `module.qualname`s of the definitions the read sits in."""
    tree = ast.parse(source)
    imported = {  # local name -> key, for each name imported from a package module
        alias.asname or alias.name: f"{node.module.rpartition('.')[2]}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] in modules
        for alias in node.names
    }

    def walk(node, path, scope):
        if isinstance(node, DEFINITIONS):
            path = f"{path}.{node.name}"
            scope = scope | {path}
        if isinstance(node, ast.Name):
            yield imported.get(node.id, f"{module}.{node.id}"), scope
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield "." + node.attr, scope
            of = getattr(node.value, "id", getattr(node.value, "attr", None))  # counts as `mod` or `pkg.mod`
            if of in modules:
                yield f"{of}.{node.attr}", scope
        for child in ast.iter_child_nodes(node):
            yield from walk(child, path, scope)

    return walk(tree, module, frozenset())


def defined(module: str, source: str):
    """(name, key) for each public top-level function or class of `source`,
    named and read as `module.name`, and for each public
    method or property of its top-level classes and each public attribute
    that they assign on `self`, named `module.Class.name` and read as `.name`."""
    for node in ast.parse(source).body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", f"{module}.{node.name}"
        if isinstance(node, ast.ClassDef):
            members = [m.name for m in node.body if isinstance(m, DEFINITIONS[:2])]
            members += [  # each attribute assigned on `self`
                a.attr
                for a in ast.walk(node)
                if isinstance(a, ast.Attribute) and isinstance(a.ctx, ast.Store)
                and getattr(a.value, "id", None) == "self"
            ]
            for name in dict.fromkeys(members):
                if not name.startswith("_"):
                    yield f"{module}.{node.name}.{name}", "." + name


def uncalled(package: dict, scripts: dict) -> list:
    """Each name of `defined` in the `package` modules (module name ->
    source) that no read of `package` or `scripts` outside its own
    definition references."""
    scopes: dict = {}  # key -> the scopes of its reads
    for module, source in {**package, **scripts}.items():
        for key, scope in reads(module, source, set(package)):
            scopes.setdefault(key, set()).add(scope)
    return [
        qual
        for module, source in package.items()
        for qual, key in defined(module, source)
        if all(qual in scope for scope in scopes.get(key, ()))
    ]


def test_checker_finds_a_name_only_its_own_definition_reads():
    package = {
        "a": "def f(n):\n    return f(n - 1)\n\ndef g():\n    pass\n\ndef _h():\n    return g\n\nclass C:\n    pass\n",
        "b": "from .a import C\n\nC()\n",
    }
    assert uncalled(package, {}) == ["a.f"]
    assert uncalled(package, {"run": "import a\na.f(3)\n"}) == []
    assert uncalled(package, {"run": "import pkg.a\npkg.a.f(3)\n"}) == []


def test_checker_does_not_count_a_method_of_the_same_name():
    package = {
        "a": "def f():\n    pass\n\nclass C:\n    def f(self):\n        return self.f\n",
        "b": "from .a import C\n\nC()\n\ndef g(c):\n    return c.f()\n",
    }
    assert uncalled(package, {"run": "from b import g\ng(None)\n"}) == ["a.f"]


def test_checker_keys_module_level_names_by_module():
    package = {
        "a": "def f():\n    pass\n",
        "b": "def f():\n    pass\n",
        "c": "from .a import f\n\ndef g():\n    return f()\n",
    }
    assert uncalled(package, {"run": "from c import g\ng()\n"}) == ["b.f"]
    assert uncalled(package, {"run": "from b import f as h\nfrom c import g\nh(g())\n"}) == []


def test_checker_does_not_count_an_import():
    package = {
        "a": "def f():\n    pass\n",
        "b": "from .a import f  # noqa: F401\n",
    }
    assert uncalled(package, {}) == ["a.f"]
    assert uncalled(package, {"run": "from a import f\nf()\n"}) == []


def test_checker_checks_class_members():
    package = {
        "a": "class C:\n"
        "    def f(self):\n        return self.f\n\n"
        "    @property\n    def p(self):\n        return 1\n\n"
        "    def g(self):\n        return self.p\n\n"
        "    def _h(self):\n        pass\n\n"
        "    def __len__(self):\n        return 0\n",
        "b": "from .a import C\n\nC()\n",
    }
    assert uncalled(package, {}) == ["a.C.f", "a.C.g"]
    assert uncalled(package, {"run": "from a import C\nC().g()\nC().f()\n"}) == []


def test_checker_checks_attributes_assigned_on_self():
    package = {
        "a": "class C:\n"
        "    def __init__(self, x, y):\n        self.x, self.y = x, y\n        self._z = 0\n\n"
        "    def g(self):\n        self.y = self.y + 1\n",
        "b": "from .a import C\n\nC(1, 2).g()\n",
    }
    assert uncalled(package, {}) == ["a.C.x"]
    assert uncalled(package, {"run": "from a import C\nc = C(1, 2)\nprint(c.x)\n"}) == []
    assert uncalled(package, {"run": "from a import C\nc = C(1, 2)\nc.x = 3\n"}) == ["a.C.x"]


def test_every_public_name_has_a_caller():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    scripts = {p.stem: p.read_text() for p in sorted(SCRIPTS.glob("*.py"))}
    assert scripts, f"no scripts under {SCRIPTS}"
    found = set(uncalled(package, scripts))
    assert sorted(found - set(ALLOWED)) == []
    # An entry whose name is gone, or that the program now reads, is stale.
    assert sorted(set(ALLOWED) - found) == []
