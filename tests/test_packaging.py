"""The package ships its data: every file under `src/mapmerge/` that is not
Python source (bytecode caches aside) matches a `package-data` glob of
`pyproject.toml`, so an installed `mapmerge` reads the files it reads here."""

from fnmatch import fnmatch
from pathlib import Path

import pytest

import mapmerge

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PACKAGE = Path(mapmerge.__file__).resolve().parent


def test_every_data_file_is_package_data():
    with open(PACKAGE.parents[1] / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["mapmerge"]
    data = [
        p.relative_to(PACKAGE).as_posix()
        for p in PACKAGE.rglob("*")
        if p.is_file() and p.suffix != ".py" and "__pycache__" not in p.parts
    ]
    assert "scenarios.json" in data
    assert [f for f in data if not any(fnmatch(f, g) for g in globs)] == []
