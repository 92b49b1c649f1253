import os
from pathlib import Path

import pytest

import mapmerge
from mapmerge.explorer import explore
from mapmerge.world import initial_config


@pytest.fixture(scope="session")
def graph_n2():
    return explore(initial_config(2))


@pytest.fixture(scope="session")
def graph_n3():
    return explore(initial_config(3))


@pytest.fixture
def src_env():
    """The environment for a child interpreter that imports this mapmerge."""
    src = str(Path(mapmerge.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
