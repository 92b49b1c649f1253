"""has_trace, whose product node is one int, against the tuple-node search
it replaced (`graph_reference.has_trace`): the same verdict, witness and
completeness on every query, and the memory each product node costs."""

import random
import tracemalloc

import pytest

from mapmerge.events import ConfirmMerge, is_internal
from mapmerge.explorer import TraceQuery, has_trace
from mapmerge.ids import universe
from mapmerge.scenarios import builtin_scenarios
from mapmerge.world import apply_event, enabled_events, initial_config

import graph_reference


def confirm_alphabet(n: int) -> frozenset:
    ids = universe(n)
    return frozenset(ConfirmMerge(a, b) for a in ids for b in ids if a != b)


def negative_query(n: int) -> TraceQuery:
    """REQ1: A2 never confirms towards A1, seen through every confirm_merge."""
    a1, a2 = universe(2)
    return TraceQuery((ConfirmMerge(a2, a1),), confirm_alphabet(n))


def walk_query(seed: int, confirms: int, n: int) -> TraceQuery:
    """The first `confirms` confirm_merge events of a seeded random walk, under every confirm_merge: the walk
    witnesses it."""
    rng, c, trace = random.Random(seed), initial_config(n), []
    while len(trace) < confirms:
        e = rng.choice(enabled_events(c))
        c = apply_event(c, e)
        if isinstance(e, ConfirmMerge):
            trace.append(e)
    return TraceQuery(tuple(trace), confirm_alphabet(n))


def same_as_reference(c0, q, **bounds):
    got, want = has_trace(c0, q, **bounds), graph_reference.has_trace(c0, q, **bounds)
    assert (got.found, got.witness, got.complete) == (want.found, want.witness, want.complete)
    return got


@pytest.mark.parametrize("n", [3, 4])
def test_builtin_scenarios_match_reference(n):
    for s in builtin_scenarios():
        assert same_as_reference(initial_config(n), s.query).found == s.expected


@pytest.mark.parametrize("n", [3, 4])
def test_random_walk_queries_match_reference(n):
    for seed in range(1, 11):
        for confirms in (1, 2, 3):
            assert same_as_reference(initial_config(n), walk_query(seed, confirms, n)).found


def test_explored_path_projections_match_reference(graph_n3):
    # All-visible queries: the projection of the path to every 17th state, which is found, and the same with its
    # first event moved to the end, which is found for 29 of the 111.
    for i in range(0, graph_n3.state_count, 17):
        visible = tuple(e for e in graph_n3.path_to(i) if not is_internal(e))
        assert same_as_reference(graph_n3.state(0), TraceQuery(visible)).found
        same_as_reference(graph_n3.state(0), TraceQuery(visible[1:] + visible[:1]))


@pytest.mark.parametrize("n", [3, 4])
def test_negative_query_matches_reference(n):
    r = same_as_reference(initial_config(n), negative_query(n))
    assert not r.found and r.complete


@pytest.mark.parametrize("max_states", [1, 2, 50, 1000, 28_560, 28_561])
def test_bounded_searches_match_reference(max_states):
    # The n=4 negative search expands 28,561 product nodes, so the last bound is the first that lets it complete.
    c0 = initial_config(4)
    r = same_as_reference(c0, negative_query(4), max_states=max_states)
    assert r.complete == (max_states == 28_561)
    same_as_reference(c0, walk_query(5, 3, 4), max_states=max_states)


def test_product_node_memory():
    # One int and one dict entry per node: about 105 B over the 28,561 nodes of the n=4 negative search, against
    # 203 B for a (key, position) tuple node with its (parent, event) tuple.  The search compiles its own model,
    # so the peak holds the tables it fills too: about 113 B per node in all.
    c0, q = initial_config(4), negative_query(4)
    tracemalloc.start()
    try:
        r = has_trace(c0, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not r.found and r.complete
    assert peak < 140 * 28_561
