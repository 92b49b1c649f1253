from typing import NamedTuple

import pytest

from mapmerge.events import (
    EVENT_TYPES,
    BeginMerge,
    ConfirmMerge,
    MergeCompleted,
    MergeConfirmed,
    MergeMaps,
    RemoveReasoningAbout,
    ReplyLeader,
    RequestLeader,
    RequestMerge,
    UpdateIdentified,
    UpdateIdentifiedSameGroup,
    Done,
    Terminate,
    ProcessRef,
    participants,
)
from mapmerge.ids import AgentId, universe
from mapmerge.processes import LeaderProcState
from mapmerge.world import (
    ConfigurationError,
    RefusedEventError,
    all_maps_merged,
    apply_event,
    enabled_events,
    initial_config,
    is_enabled,
    is_quiescent,
    is_terminal,
    quiescent_partition_violation,
)

A1, A2, A3 = AgentId(1), AgentId(2), AgentId(3)


@pytest.mark.parametrize("n", [0, 1, 9, -3])
def test_initial_config_bounds(n):
    with pytest.raises(ConfigurationError):
        initial_config(n)


def test_initial_config_bad_merge_set_max():
    with pytest.raises(ConfigurationError):
        initial_config(3, merge_set_max=0)


def test_initial_enabled_set_hand_enumerated():
    # At the start every agent may ask its own leader about any one other
    # agent: exactly n*(n-1) singleton request_merge events at n=3.
    c = initial_config(3)
    expected = {
        RequestMerge(agent=a, leader=a, merge_set=frozenset({b}))
        for a in (A1, A2, A3)
        for b in (A1, A2, A3)
        if a != b
    }
    assert set(enabled_events(c)) == expected
    assert len(enabled_events(c)) == 6


def test_enabled_events_sorted_and_stable():
    c = initial_config(3)
    es = enabled_events(c)
    assert es == enabled_events(c)
    from mapmerge.events import sort_key

    assert es == sorted(es, key=sort_key)


def test_merge_set_max_widens_requests():
    c = initial_config(3, merge_set_max=2)
    es = enabled_events(c)
    assert RequestMerge(agent=A1, leader=A1, merge_set=frozenset({A2, A3})) in es
    assert len(es) == 9  # 6 singles + 3 pairs


PAIR_MERGE = [
    RequestMerge(agent=A1, leader=A1, merge_set=frozenset({A2})),
    BeginMerge(leader=A1),
    RequestLeader(req_leader=A1, target_agent=A2),
    ReplyLeader(target_agent=A2, req_leader=A1, its_leader=A2),
    ConfirmMerge(req_leader=A1, other_leader=A2),
    MergeConfirmed(req_leader=A1, other_leader=A2, other_agent_set=frozenset({A2})),
    MergeMaps(req_leader=A1, other_leader=A2),
    MergeCompleted(req_leader=A1, other_leader=A2, union_set=frozenset({A1, A2})),
    UpdateIdentifiedSameGroup(leader=A1, agent=A1, new_set=frozenset({A1, A2})),
    UpdateIdentified(leader=A1, agent=A2, new_set=frozenset({A1, A2})),
]


def replay(c, events):
    for e in events:
        c = apply_event(c, e)
    return c


def test_pair_merge_replay():
    c = replay(initial_config(3), PAIR_MERGE)
    assert c.leader(A1).agent_set == frozenset({A1, A2})
    assert not c.leader(A2).active
    assert c.agents[A2.index - 1].believed_leader == A1
    assert is_quiescent(c)
    assert quiescent_partition_violation(c) is None
    assert not is_terminal(c)


def test_all_maps_merged_needs_the_whole_team():
    assert not all_maps_merged(initial_config(2))
    assert not all_maps_merged(replay(initial_config(3), PAIR_MERGE))
    c = replay(initial_config(2), PAIR_MERGE)
    assert all_maps_merged(c) and not is_terminal(c)


def test_apply_event_refuses_with_blocker():
    c = initial_config(3)
    with pytest.raises(RefusedEventError) as ei:
        apply_event(c, ConfirmMerge(req_leader=A1, other_leader=A2))
    assert str(ei.value) == "confirm_merge.A1.A2 not enabled (Leader(A1))"


def test_remove_reasoning_needs_a_refusing_leader():
    c = initial_config(3)
    e = RemoveReasoningAbout(req_agent=A1, other_agent=A2)
    assert not is_enabled(c, e)
    with pytest.raises(RefusedEventError):
        apply_event(c, e)


def test_full_merge_reaches_terminal():
    c = replay(initial_config(2), PAIR_MERGE)
    # Universe is {A1,A2}: the winner proceeds through done/terminate.
    assert enabled_events(c) == [Done(leader=A1)]
    c = apply_event(c, Done(leader=A1))
    c = apply_event(c, Terminate(leader=A1))
    assert is_terminal(c)
    assert enabled_events(c) == []


def test_no_harness_terminal_is_quiescent_merge():
    c = initial_config(2, harness=False)
    c = replay(c, PAIR_MERGE)
    assert is_terminal(c)
    assert enabled_events(c) == []


def test_configurations_hash_structurally():
    a = initial_config(3)
    b = initial_config(3)
    assert a == b and hash(a) == hash(b)
    assert a != initial_config(3, harness=False)


def test_partition_violation_detects_overlap():
    c = initial_config(2)
    l0 = c.leaders[0]._replace(agent_set=frozenset({A1, A2}))
    bad = c._replace(leaders=(l0, c.leaders[1]))
    assert quiescent_partition_violation(bad) is not None


def instance(cls):
    """One instance of event type `cls`: its agent fields name distinct agents, and each set field is {A1}."""
    ids = iter(universe(len(cls._fields)))
    return cls(*(frozenset({A1}) if t is frozenset else next(ids) for t in cls.__annotations__.values()))


def not_two_party(types, parties=participants) -> list:
    """Each type among `types` whose instance `parties` gives neither one nor two processes."""
    return [cls for cls in types if not 1 <= len(parties(instance(cls))) <= 2]


class Triple(NamedTuple):
    """A fixture event type that three agents take."""

    a: AgentId
    b: AgentId
    c: AgentId


def test_checker_finds_a_three_party_type():
    def parties(e):
        return frozenset(ProcessRef("agent", a) for a in e) if isinstance(e, Triple) else participants(e)

    assert not_two_party([*EVENT_TYPES.values(), Triple], parties) == [Triple]


def test_every_event_type_has_one_or_two_participants():
    # world.Model compiles each move with at most one partner on this premise.
    assert len(EVENT_TYPES) == 14
    assert not_two_party(EVENT_TYPES.values()) == []


def test_every_compiled_move_steps_each_participant(graph_n3):
    m = graph_n3.model
    kinds = set()
    for i, s in enumerate(m.locals):
        own = s.id.index - 1 + (m.n if isinstance(s, LeaderProcState) else 0)
        for ev, _, partner, _ in m._moves[i]:
            slots = {r.id.index - 1 + (m.n if r.kind == "leader" else 0) for r in participants(m.labels[ev])}
            assert slots | {own} == {own, partner} - {-1}
            kinds.add(partner >= 0)
    assert kinds == {False, True}
