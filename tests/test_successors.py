"""Differential test: world.Model.successors against the reference path,
apply_event and enabled_events, which read no Model.

The reference is every label of the n-agent alphabet that apply_event
accepts.  Both paths read the same process declarations (processes.*_moves
and *_accept); what the comparison checks is the compiled model: participant
slots, the first-mover rule, canonical order, step tables and keys.
"""

import itertools
import pickle
import subprocess
import sys
from collections import Counter

import pytest

from mapmerge.events import (
    EVENT_TYPES,
    ProcessRef,
    RemoveReasoningAbout,
    RequestMerge,
    participants,
    sort_key,
)
from mapmerge.explorer import explore
from mapmerge.ids import universe
from mapmerge.scenarios import builtin_scenarios, check_scenario
from mapmerge import world
from mapmerge import processes
from mapmerge.processes import LeaderProcState, Refusing
from mapmerge.world import Model, RefusedEventError, apply_event, enabled_events, initial_config

from conftest import ACTIVE_MUTANT, DEMOTE_ON_MERGE_MUTANT, PRIORITY_MUTANT, REPLACE_SET_MUTANT, installed, variant
from graph_reference import edges, participants as reference_participants, replay, states, transitions

# Model flags for initial_config, or a mutant of the process functions.
VARIANTS = {
    "default": {},
    "merge_set_max=2": {"merge_set_max": 2},
    "harness=False": {"harness": False},
    "priority_guard=False": PRIORITY_MUTANT,
    "active_guard=False": ACTIVE_MUTANT,
}


def successors(c, m=None) -> list:
    """Every enabled event of `c` with its successor configuration, through the compiled model `m`, by default a
    fresh one."""
    m = m or Model(c.params)
    key = m.encode(c)
    return [(m.labels[ev], m.decode(m.code(key2))) for ev, key2 in m.successors(key, m.code(key))]


def alphabet(n: int) -> list:
    """Every label over A1..An, with nonempty sets in set-valued fields."""
    ids = universe(n)
    sets = [frozenset(s) for k in range(1, n + 1) for s in itertools.combinations(ids, k)]
    out = []
    for cls in EVENT_TYPES.values():
        domains = [sets if t is frozenset else ids for t in cls.__annotations__.values()]
        out.extend(cls(*args) for args in itertools.product(*domains))
    return out


def reference(c, labels) -> list:
    out = []
    for e in labels:
        try:
            out.append((e, apply_event(c, e)))
        except RefusedEventError:
            pass
    return sorted(out, key=lambda pair: sort_key(pair[0]))


def test_alphabet_sizes():
    assert len(alphabet(2)) == 94
    assert len(alphabet(3)) == 396


@pytest.mark.parametrize("n, stride", [(2, 1), (3, 25)])
@pytest.mark.parametrize("spec", VARIANTS.values(), ids=VARIANTS)
def test_successors_match_apply_event(n, stride, spec):
    labels = alphabet(n)
    with variant(n, spec) as c0:
        g = explore(c0, checks=[])
        assert g.complete
        assert g.state(0) == c0
        for c in states(g)[::stride]:
            succs = successors(c, g.model)
            assert succs == reference(c, labels)
            assert enabled_events(c) == [e for e, _ in succs]


def test_apply_event_refuses_request_merge_over_merge_set_max():
    # successors never proposes a merge set larger than merge_set_max, and
    # the agent refuses one, so apply_event does too.
    a1, a2, a3 = universe(3)
    with pytest.raises(RefusedEventError):
        apply_event(initial_config(3), RequestMerge(a1, a1, frozenset({a2, a3})))


def test_first_refusing_leader_keeps_remove_reasoning_about():
    # No explored model reaches two leaders refusing the same request, so the
    # configuration is built by hand: both offer one label, and the first
    # leader takes it, as apply_event picks.
    a1, a2, a3 = universe(3)
    c0, refusing = initial_config(3), Refusing(a3, a1, ())
    c = c0._replace(
        agents=c0.agents[:2] + (c0.agents[2]._replace(has_outstanding_request=True),),
        leaders=(c0.leaders[0],) + tuple(l._replace(phase=refusing) for l in c0.leaders[1:]),
    )
    assert successors(c) == reference(c, alphabet(3))
    assert enabled_events(c) == [e for e, _ in successors(c)]  # both leaders offer the label, listed once
    after = dict(successors(c))[RemoveReasoningAbout(a3, a1)]
    assert after.leader(a2).phase != refusing and after.leader(a3).phase == refusing


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("spec", VARIANTS.values(), ids=VARIANTS)
def test_participants_match_the_reference_chain_on_every_graph_label(n, spec):
    with variant(n, spec) as c0:
        g = explore(c0, checks=[])
    labels = [g.model.labels[ev] for ev in set(g.events)]
    assert labels and all(participants(e) == reference_participants(e) for e in labels)


@pytest.mark.parametrize("spec", VARIANTS.values(), ids=VARIANTS)
def test_accept_is_asked_only_of_participants(spec):
    # events.participants alone says whom a label addresses: the model asks
    # *_accept only of a label's participants, so no guard restates it.
    calls = Counter()

    def asked(kind: str):
        accept = getattr(processes, f"{kind}_accept")

        def checked(s, e):
            assert ProcessRef(kind, s.id) in participants(e), (s, e)
            calls[kind] += 1
            return accept(s, e)

        return checked

    with (
        variant(3, spec) as c0,
        installed("agent_accept", asked("agent")),
        installed("leader_accept", asked("leader")),
    ):
        explore(c0, checks=[])
    assert calls["agent"] and calls["leader"]


@pytest.mark.parametrize("spec", VARIANTS.values(), ids=VARIANTS)
def test_moves_and_accepted_events_are_disjoint(spec):
    # A process either initiates an event or joins it passively, never both,
    # and its step takes each of its moves to the move's next state.
    with variant(3, spec) as c0:
        m = explore(c0, checks=[]).model
        labels, params = alphabet(3), c0.params
        movers = {}  # label -> the processes that have it among an interned local's moves
        for s in list(m.locals):
            if isinstance(s, LeaderProcState):
                moves, step, me = processes.leader_moves(s, params), processes.leader_step, ProcessRef("leader", s.id)
                accepted = [e for e in labels if processes.leader_accept(s, e) is not None]
            else:
                moves, step, me = processes.agent_moves(s, params), processes.agent_step, ProcessRef("agent", s.id)
                accepted = [e for e in labels if processes.agent_accept(s, e) is not None]
            moved = dict(moves)
            assert len(moved) == len(moves)
            assert not moved.keys() & set(accepted), s
            assert all(step(s, e, params) == nxt for e, nxt in moves), s
            for e in moved:
                movers.setdefault(e, set()).add(me)
        # Model steps a move's other participants by *_accept alone, which is
        # their step only if none of them ever has the label among its moves:
        # at most one participant moves a label, and none when another process
        # (a refusing leader, for remove_reasoning_about) does.
        assert all(not (participants(e) - {p}) & who for e, who in movers.items() for p in who)


@pytest.mark.parametrize(
    "spec",
    [*VARIANTS.values(), DEMOTE_ON_MERGE_MUTANT, REPLACE_SET_MUTANT],
    ids=[*VARIANTS, "demote_on_merge", "replace_set"],
)
def test_shift_flags_mark_exactly_the_labels_that_move_a_leader_pair(spec):
    # Model.shifts is sound (every transition that changes some leader's
    # (active, agent_set) carries a flagged label) and, on these graphs,
    # exact (no transition on a flagged label leaves every pair unchanged).
    with variant(3, spec) as c0:
        g = explore(c0, checks=[])
    pairs = [[(l.active, l.agent_set) for l in c.leaders] for c in states(g)]
    shifts = g.model.shifts
    assert any(shifts)
    assert all(shifts[ev] == (pairs[i] != pairs[j]) for i, ev, j in edges(g))


@pytest.mark.parametrize("spec", VARIANTS.values(), ids=VARIANTS)
def test_codes_round_trip(spec):
    with variant(3, spec) as c0:
        g = explore(c0, checks=[])
        m = g.model
        keys = [m.encode(c) for c in states(g)]
        assert all(m.decode(m.code(key)) == c for key, c in zip(keys, states(g)))
        assert [m.code(key) for key in keys] == [g.code(i) for i in range(g.state_count)]
        assert len(set(states(g))) == len(set(keys)) == g.state_count


def slot_key(m, ints, c) -> int:
    """The key of `c` built slot by slot from `ints`, local state -> int: each
    local's int in 16 bits, then three 5-bit counts of its locals: with a
    message, owing a duty, not quiescent."""
    code = [ints[s] for s in c.agents + c.leaders]
    message = sum(a.id not in a.known_group or a.believed_leader not in a.known_group for a in c.agents)
    message += sum(l.active and l.id not in l.agent_set for l in c.leaders)
    progressing = (processes.Considering, processes.BeingMerged, processes.AwaitCompletion)
    duty = sum(bool(l.pending_cancels) or not l.active and isinstance(l.phase, progressing) for l in c.leaders)
    busy = sum(not processes.is_quiescent(s) for s in c.agents + c.leaders)
    counts = message | duty << 5 | busy << 10
    return sum(x << 16 * slot for slot, x in enumerate(code)) | counts << 32 * m.n


@pytest.mark.parametrize("spec", VARIANTS.values(), ids=VARIANTS)
def test_successor_keys_match_keys_built_slot_by_slot(spec):
    # Every successor key, a sum of per-local deltas, equals the key of the
    # apply_event successor built slot by slot, so the count word folded into
    # it counts each local's MESSAGE, DUTY and BUSY facts.
    with variant(3, spec) as c0:
        g = explore(c0, checks=[])
        m = g.model
        ints = {s: i for i, s in enumerate(m.locals)}
        words = set()
        for c in states(g):
            key = m.encode(c)
            assert key == slot_key(m, ints, c)
            words.add(key >> 32 * m.n)
            for ev, key2 in m.successors(key, m.code(key)):
                assert key2 == slot_key(m, ints, apply_event(c, m.labels[ev]))
    assert any(w & world.DUTY for w in words) and any(w & world.BUSY for w in words)
    assert any(not w & world.BUSY for w in words)


def test_each_label_is_one_shared_object():
    # A search's own tables hold one object per distinct label, and so does its graph.
    events = [e for _, e, _ in transitions(explore(initial_config(3), checks=[]))]
    assert len({id(e) for e in events}) == len(set(events))


# A first search in a fresh process: its model's tables and the graph's arrays, pickled to stdout.
FIRST_SEARCH = """
import pickle, sys
from mapmerge.explorer import explore
from mapmerge.world import initial_config
g = explore(initial_config(3), checks=[])
m = g.model
sys.stdout.buffer.write(pickle.dumps((m.locals, m.labels, bytes(m.shifts), g.rows, g.events, g.targets)))
"""


def test_earlier_searches_leave_a_search_unchanged(src_env):
    # Each search compiles its own model: after the scenario searches and a merge_set_max=2 explore, an n=3
    # explore gives the same ints, shift flags and arrays as a first search in a fresh process.
    first = subprocess.run([sys.executable, "-c", FIRST_SEARCH], env=src_env, capture_output=True, timeout=120)
    assert first.returncode == 0, first.stderr
    c0 = initial_config(3)
    for s in builtin_scenarios():
        check_scenario(s, c0)
    explore(initial_config(3, merge_set_max=2))
    g = explore(c0, checks=[])
    m = g.model
    assert (m.locals, m.labels, bytes(m.shifts), g.rows, g.events, g.targets) == pickle.loads(first.stdout)


def test_successors_of_replayed_configuration(graph_n3):
    # apply_event builds fresh local states; the tables match them by value.
    for idx in range(1, graph_n3.state_count, 47):
        c = replay(graph_n3, graph_n3.path_to(idx))
        stored = graph_n3.state(idx)
        assert c == stored
        assert any(x is not y for x, y in zip(c.agents + c.leaders, stored.agents + stored.leaders))
        assert successors(c, graph_n3.model) == successors(stored, graph_n3.model)
