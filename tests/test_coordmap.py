import pytest
from hypothesis import given, strategies as st

from mapmerge.ids import AgentId

from coordmap import (
    GridMap,
    IDENTITY,
    MergeConflictError,
    Offset,
    compose,
    invert,
    merge_grids,
    transform,
)

A1, A2 = AgentId(1), AgentId(2)

coords = st.integers(min_value=-50, max_value=50)
offsets = st.builds(Offset, coords, coords)
points = st.tuples(coords, coords)
values = st.sampled_from(["obstacle", "goal", "empty", "dispenser"])
cell_dicts = st.dictionaries(points, values, max_size=12)


@given(offsets, offsets, offsets)
def test_compose_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(offsets)
def test_identity_and_inverse(o):
    assert compose(o, IDENTITY) == o == compose(IDENTITY, o)
    assert compose(o, invert(o)) == IDENTITY


@given(points, offsets)
def test_transform_roundtrip(p, o):
    assert transform(transform(p, o), invert(o)) == p


@given(points, offsets, offsets)
def test_transform_composes(p, a, b):
    assert transform(transform(p, a), b) == transform(p, compose(a, b))


def test_merge_disjoint_example():
    a = GridMap({(0, 0): "empty", (1, 0): "obstacle"}, A1)
    b = GridMap({(0, 0): "goal"}, A2)
    m = merge_grids(a, b, Offset(5, 0))
    assert m.owner_frame == A1
    assert m.cells == {(0, 0): "empty", (1, 0): "obstacle", (5, 0): "goal"}


def test_merge_agreeing_overlap():
    a = GridMap({(2, 3): "goal"}, A1)
    b = GridMap({(0, 0): "goal"}, A2)
    m = merge_grids(a, b, Offset(2, 3))
    assert len(m.cells) == 1


def test_merge_conflict_raises():
    a = GridMap({(0, 0): "empty"}, A1)
    b = GridMap({(0, 0): "obstacle"}, A2)
    with pytest.raises(MergeConflictError) as ei:
        merge_grids(a, b, IDENTITY)
    assert ei.value.conflicts == [(0, 0)]


@given(cell_dicts, offsets)
def test_shifted_preserves_size_and_frame(cells, o):
    g = GridMap(cells, A1)
    s = g.shifted(o)
    assert len(s.cells) == len(g.cells) and s.owner_frame == A1
    assert s.shifted(invert(o)) == g


@given(cell_dicts, cell_dicts, offsets)
def test_merge_consistency(a_cells, b_cells, o):
    a, b = GridMap(a_cells, A1), GridMap(b_cells, A2)
    try:
        m = merge_grids(a, b, o)
    except MergeConflictError as exc:
        assert exc.conflicts
        for q in exc.conflicts:
            p = transform(q, invert(o))
            assert a_cells[q] != b_cells[p]
        return
    # Every source cell survives, re-expressed in a's frame.
    for p, v in a_cells.items():
        assert m.cells[p] == v
    for p, v in b_cells.items():
        assert m.cells[transform(p, o)] == v
    assert m.owner_frame == A1


@given(cell_dicts, cell_dicts, offsets)
def test_merge_commutes_up_to_frame(a_cells, b_cells, o):
    a, b = GridMap(a_cells, A1), GridMap(b_cells, A2)
    try:
        ab = merge_grids(a, b, o)
    except MergeConflictError:
        with pytest.raises(MergeConflictError):
            merge_grids(b, a, invert(o))
        return
    ba = merge_grids(b, a, invert(o))
    assert ba.shifted(o).cells == ab.cells
