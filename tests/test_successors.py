"""Differential test: world.successors against the uncached apply_event path.

The reference is every label of the n-agent alphabet that apply_event
accepts, except request_merge labels whose merge set is larger than
merge_set_max: those are the only accepted labels that are never proposed.
"""

import itertools
import sys
from dataclasses import fields

import pytest

from mapmerge.events import EVENT_TYPES, RequestMerge, sort_key
from mapmerge.explorer import explore
from mapmerge.ids import universe
from mapmerge import world
from mapmerge.world import RefusedEventError, apply_event, initial_config, successors

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
    for c in g.states[::stride]:
        assert successors(c) == reference(c, labels)


def test_step_tables_filled_by_threads():
    # Threads that miss on the same step at once each compute it; interning
    # makes them store the same successor, so the graph is unchanged.
    c0 = initial_config(3)
    expected = explore(c0, checks=[])
    for table in (world._AGENT_STEPS, world._LEADER_STEPS, world._LOCAL_STATES, world._EVENTS):
        table.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        g = explore(c0, checks=[], workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert g.states == expected.states
    assert g.transitions == expected.transitions
