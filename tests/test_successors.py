"""Differential test: world.successors against the uncached apply_event path.

The reference is every label of the n-agent alphabet that apply_event
accepts, except request_merge labels whose merge set is larger than
merge_set_max: those are the only accepted labels that are never proposed.
"""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import pytest

from mapmerge.events import EVENT_TYPES, RequestMerge, sort_key
from mapmerge.explorer import explore
from mapmerge.ids import universe
from mapmerge import world
from mapmerge.world import RefusedEventError, apply_event, initial_config, successors

from graph_reference import states, transitions

VARIANTS = [
    {},
    {"merge_set_max": 2},
    {"harness": False},
    {"priority_guard": False},
    {"active_guard": False},
]


def alphabet(n: int) -> list:
    """Every label over A1..An, with nonempty sets in set-valued fields."""
    ids = universe(n)
    sets = [frozenset(s) for k in range(1, n + 1) for s in itertools.combinations(ids, k)]
    out = []
    for cls in EVENT_TYPES.values():
        domains = [sets if f.type == "frozenset" else ids for f in fields(cls)]
        out.extend(cls(*args) for args in itertools.product(*domains))
    return out


def reference(c, labels) -> list:
    out = []
    for e in labels:
        if isinstance(e, RequestMerge) and len(e.merge_set) > c.params.merge_set_max:
            continue
        try:
            out.append((e, apply_event(c, e)))
        except RefusedEventError:
            pass
    return sorted(out, key=lambda pair: sort_key(pair[0]))


def test_alphabet_sizes():
    assert len(alphabet(2)) == 94
    assert len(alphabet(3)) == 396


@pytest.mark.parametrize("n, stride", [(2, 1), (3, 25)])
@pytest.mark.parametrize("params", VARIANTS, ids=lambda p: ",".join(f"{k}={v}" for k, v in p.items()) or "default")
def test_successors_match_apply_event(n, stride, params):
    labels = alphabet(n)
    g = explore(initial_config(n, **params), checks=[])
    assert g.complete
    for c in states(g)[::stride]:
        assert successors(c) == reference(c, labels)


@pytest.mark.parametrize("params", VARIANTS, ids=lambda p: ",".join(f"{k}={v}" for k, v in p.items()) or "default")
def test_codes_round_trip(params):
    g = explore(initial_config(3, **params), checks=[])
    m = world.model(g.initial.params)
    codes = [m.encode(c) for c in states(g)]
    assert all(m.decode(code) == c for code, c in zip(codes, states(g)))
    assert len(set(states(g))) == len(set(codes)) == g.state_count


def threaded_bfs(c0) -> tuple:
    """The states and transitions of explore's BFS without checks, from
    emptied tables, with each layer's Model.successors calls spread over four
    threads that switch every microsecond."""
    world.model.cache_clear()
    m = world.model(c0.params)
    index = {m.encode(c0): 0}  # code -> idx, in BFS order
    transitions = []
    layer = list(index)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            while layer:
                nxt = []
                for code, succs in zip(layer, pool.map(m.successors, layer)):
                    for ev, code2 in succs:
                        if code2 not in index:
                            index[code2] = len(index)
                            nxt.append(code2)
                        transitions.append((index[code], m.labels[ev], index[code2]))
                layer = nxt
    finally:
        sys.setswitchinterval(interval)
    return [m.decode(code) for code in index], transitions


def test_step_tables_filled_by_threads():
    # Threads that miss on the same step at once serialise on the model's
    # lock and agree on every int, so the graph is unchanged.
    c0 = initial_config(3)
    expected = explore(c0, checks=[])
    threaded_states, threaded_transitions = threaded_bfs(c0)
    assert threaded_states == states(expected)
    assert threaded_transitions == transitions(expected)


def test_each_label_is_one_shared_object():
    # With every table emptied, sequential and threaded runs both store one
    # object per distinct label in the graph.
    c0 = initial_config(3)
    world.model.cache_clear()
    runs = [transitions(explore(c0, checks=[])), threaded_bfs(c0)[1]]
    assert runs[0] == runs[1]
    for run in runs:
        events = [e for _, e, _ in run]
        assert len({id(e) for e in events}) == len(set(events))


def test_successors_of_replayed_configuration(graph_n3):
    # apply_event builds fresh local states; the tables match them by value.
    for idx in range(1, graph_n3.state_count, 47):
        path = graph_n3.path_to(idx)
        c = path[0]
        for e in path[1::2]:
            c = apply_event(c, e)
        stored = graph_n3.state(idx)
        assert c == stored
        assert any(x is not y for x, y in zip(c.agents + c.leaders, stored.agents + stored.leaders))
        assert successors(c) == successors(stored)
