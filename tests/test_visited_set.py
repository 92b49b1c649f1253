"""Differential test: explorer.explore, which finds a visited state through a
hash table of arrays keyed and confirmed by the state's row, against
graph_reference.explore, which keeps one dict of every key.  Both must build
the same graph, cut it at the same bounds, and report the same violations.
`StateGraph.path_to`, which searches the BFS layers, must give each state the
labels along the chain of states that found it, as the reference records it."""

import struct
from contextlib import nullcontext

import pytest

from mapmerge import explorer
from mapmerge.explorer import explore
from mapmerge.world import initial_config

import conftest
import graph_reference
from conftest import (
    DEMOTE_ON_MERGE_MUTANT,
    DONE_AFTER_FIRST_MERGE_MUTANT,
    OLD_AGENT_GUARD_MUTANT,
    REPLACE_SET_MUTANT,
    mutant,
)
from test_explorer import DIFFERENTIAL_GRAPHS, n3_msm2
from test_successors import VARIANTS

# Each graph at n=3 as (initial_config flags, the mutant it is built under or None): every VARIANTS graph, and the
# mutant graphs of DIFFERENTIAL_GRAPHS, all of which n3_msm2 builds.
GRAPHS = {name: ({}, spec) if isinstance(spec, tuple) else (spec, None) for name, spec in VARIANTS.items()}
GRAPHS.update((name, ({"merge_set_max": 2}, spec)) for name, (spec, make) in DIFFERENTIAL_GRAPHS.items() if spec)
# "full" bounds the search at the reference's state count, which cuts nothing.
BOUNDS = {
    "unbounded": {},
    **{f"max_states={k}": {"max_states": k} for k in (1, 2, 50, "full")},
    **{f"max_depth={d}": {"max_depth": d} for d in range(4)},
}


def test_every_mutant_graph_is_built_by_n3_msm2():
    assert all(make is n3_msm2 for spec, make in DIFFERENTIAL_GRAPHS.values() if spec)


def graph(g) -> tuple:
    """Everything explore builds, each violation's state and label included."""
    return g.rows, g.offsets, g.events, g.targets, g.layers, g.truncated, g.violations


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", GRAPHS)
def test_explore_matches_the_dict_keyed_reference(name, bound):
    flags, spec = GRAPHS[name]
    kwargs = BOUNDS[bound]
    with mutant(*spec) if spec else nullcontext():
        c0 = initial_config(3, **flags)
        if kwargs.get("max_states") == "full":
            kwargs = {"max_states": graph_reference.explore(c0).state_count}
        got, ref = explore(c0, **kwargs), graph_reference.explore(c0, **kwargs)
    assert graph(got) == graph(ref)
    assert got.complete == (bound in ("unbounded", "max_states=full"))


# Every VARIANTS model and every conftest mutant, as (initial_config flags, the mutant or None); the old agent guard
# at merge_set_max=2, the only bound under which it changes the graph.
MODELS = {name: GRAPHS[name] for name in VARIANTS}
MODELS.update(
    demote_on_merge=({}, DEMOTE_ON_MERGE_MUTANT),
    replace_set=({}, REPLACE_SET_MUTANT),
    done_after_first_merge=({}, DONE_AFTER_FIRST_MERGE_MUTANT),
    old_agent_guard=({"merge_set_max": 2}, OLD_AGENT_GUARD_MUTANT),
)


def test_models_hold_every_conftest_mutant():
    mutants = {v for k, v in vars(conftest).items() if k.endswith("_MUTANT")}
    assert {spec for _, spec in MODELS.values() if spec} == mutants


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("n", [2, 3])
def test_every_witness_is_the_path_that_found_its_state(n, name, bound):
    # The witness of every state follows the reference's record of which
    # state found which, label for label, and has its BFS depth: the fewest
    # transitions of the graph that reach the state.
    flags, spec = MODELS[name]
    kwargs = BOUNDS[bound]
    with mutant(*spec) if spec else nullcontext():
        c0 = initial_config(n, **flags)
        if kwargs.get("max_states") == "full":
            kwargs = {"max_states": graph_reference.explore(c0, checks=[]).state_count}
        got, ref = explore(c0, checks=[], **kwargs), graph_reference.explore(c0, checks=[], **kwargs)
    paths = [got.path_to(i) for i in range(got.state_count)]
    assert paths == [graph_reference.found_path(ref, i) for i in range(ref.state_count)]
    assert list(map(len, paths)) == graph_reference.depths(got)


@pytest.mark.parametrize(
    "merge_set_max, colliding",
    [(1, lambda row: 0), (2, lambda row: hash(row) & 63)],
    ids=["msm1-one-hash", "msm2-64-hashes"],
)
def test_colliding_hashes_leave_the_graph_unchanged(monkeypatch, merge_set_max, colliding):
    # With one row hash every state shares a chain, and with 64 a lookup
    # walks a 64th of them; the row comparison alone tells states apart.
    # One hash at merge_set_max=2 would compare each new state's row with
    # those of all the states found before it, 40M comparisons.
    c0 = initial_config(3, merge_set_max=merge_set_max)
    want = explore(c0, checks=[])
    monkeypatch.setattr(explorer, "_hash", colliding)
    assert graph(explore(c0, checks=[])) == graph(want)


def test_swapped_key_bytes_are_a_big_endian_row():
    # A big-endian host stores each of a row's ints high byte first, and
    # explore swaps a key's little-endian bytes to match.
    assert explorer._swap16(struct.pack("<3H", 1, 2, 770)) == struct.pack(">3H", 1, 2, 770)
