from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from mapmerge.events import (
    BeginMerge,
    ConfirmMerge,
    Done,
    EVENT_TYPES,
    InvalidEventError,
    MergeCompleted,
    ProcessRef,
    RemoveReasoningAbout,
    RequestMerge,
    UpdateIdentified,
    event_ids,
    from_json,
    is_internal,
    label,
    participants,
    sort_key,
    to_json,
    validate_event,
)
from mapmerge.ids import AgentId, universe
from mapmerge.world import MAX_AGENTS

from graph_reference import participants as reference_participants
from test_explorer import LEADER_PHASES

A1, A2, A3 = AgentId(1), AgentId(2), AgentId(3)


def test_participants_request_merge():
    e = RequestMerge(agent=A2, leader=A1, merge_set=frozenset({A3}))
    assert participants(e) == frozenset({ProcessRef("agent", A2), ProcessRef("leader", A1)})


def test_participants_leader_pair():
    e = ConfirmMerge(req_leader=A1, other_leader=A3)
    assert participants(e) == frozenset({ProcessRef("leader", A1), ProcessRef("leader", A3)})


def test_participants_update():
    e = UpdateIdentified(leader=A1, agent=A2, new_set=frozenset({A1, A2}))
    assert participants(e) == frozenset({ProcessRef("leader", A1), ProcessRef("agent", A2)})


def test_participants_remove_reasoning_is_agent_side():
    # The handling leader is resolved from the configuration, not the label.
    e = RemoveReasoningAbout(req_agent=A2, other_agent=A1)
    assert participants(e) == frozenset({ProcessRef("agent", A2)})


def test_event_types_keep_their_wire_names_in_canonical_order():
    # The wire names are the trace-file and scenario-file contract, and the order is each type's rank in sort_key,
    # which fixes successor order.
    assert list(EVENT_TYPES) == [
        "request_merge",
        "request_leader",
        "reply_leader",
        "begin_merge",
        "confirm_merge",
        "merge_cancelled",
        "merge_confirmed",
        "merge_maps",
        "merge_completed",
        "update_identified_same_group",
        "update_identified",
        "remove_reasoning_about",
        "done",
        "terminate",
    ]


any_id = st.integers(min_value=1, max_value=MAX_AGENTS).map(AgentId)


@pytest.mark.parametrize("cls", EVENT_TYPES.values(), ids=EVENT_TYPES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_participants_match_the_reference_chain(cls, data):
    # Each agent field is any of A1-A8 and each set field any subset of them; 30 draws per type, 420 in all.
    e = cls(*(data.draw(st.frozensets(any_id) if t is frozenset else any_id) for t in cls.__annotations__.values()))
    assert participants(e) == reference_participants(e)


def test_participants_rejects_an_unknown_type():
    with pytest.raises(InvalidEventError, match="unknown event"):
        participants((A1, A2))


def test_begin_merge_is_internal():
    assert is_internal(BeginMerge(leader=A1))
    assert not is_internal(Done(leader=A1))


def test_event_ids_collects_sets():
    e = MergeCompleted(req_leader=A1, other_leader=A2, union_set=frozenset({A1, A2, A3}))
    assert event_ids(e) == {A1, A2, A3}


def test_validate_event_rejects_out_of_universe():
    with pytest.raises(InvalidEventError):
        validate_event(Done(leader=A3), n=2)
    validate_event(Done(leader=A3), n=3)


def test_validate_event_rejects_empty_merge_set():
    with pytest.raises(InvalidEventError):
        validate_event(RequestMerge(agent=A2, leader=A1, merge_set=frozenset()), n=3)


def test_label_rendering():
    e = MergeCompleted(req_leader=A1, other_leader=A2, union_set=frozenset({A2, A1}))
    assert label(e) == "merge_completed.A1.A2.{A1,A2}"
    assert label(ConfirmMerge(req_leader=A1, other_leader=A2)) == "confirm_merge.A1.A2"


def test_json_roundtrip_examples():
    examples = [
        RequestMerge(agent=A2, leader=A1, merge_set=frozenset({A3})),
        MergeCompleted(req_leader=A1, other_leader=A2, union_set=frozenset({A1, A2})),
        RemoveReasoningAbout(req_agent=A2, other_agent=A1),
        Done(leader=A1),
    ]
    for e in examples:
        d = to_json(e)
        assert d["type"] in EVENT_TYPES
        assert from_json(d) == e


def test_from_json_rejects_malformed():
    with pytest.raises(InvalidEventError):
        from_json({"no_type": True})
    with pytest.raises(InvalidEventError):
        from_json({"type": "frobnicate"})
    with pytest.raises(InvalidEventError):
        from_json({"type": "done"})  # missing leader
    with pytest.raises(InvalidEventError):
        from_json({"type": "done", "leader": "A1", "extra": "x"})
    with pytest.raises(InvalidEventError):
        from_json({"type": "done", "leader": "bogus"})


ids = st.integers(min_value=1, max_value=4).map(AgentId)
id_sets = st.frozensets(ids, min_size=1, max_size=3)


@st.composite
def events(draw):
    name = draw(st.sampled_from(sorted(EVENT_TYPES)))
    cls = EVENT_TYPES[name]
    kwargs = {}
    for field in cls._fields:
        if field in ("merge_set", "other_agent_set", "union_set", "new_set"):
            kwargs[field] = draw(id_sets)
        else:
            kwargs[field] = draw(ids)
    return cls(**kwargs)


@given(events())
def test_json_roundtrip_property(e):
    assert from_json(to_json(e)) == e


@given(st.lists(events(), max_size=8))
def test_sort_events_is_order_insensitive(es):
    assert sorted(es, key=sort_key) == sorted(reversed(es), key=sort_key)


def tuple_key(e):
    """The canonical order, stated as a tuple: the type's rank in EVENT_TYPES, then each field in declaration order,
    an agent id as its index and an agent set as its sorted indices."""
    rank = list(EVENT_TYPES.values()).index(type(e))
    return rank, tuple(v.index if isinstance(v, AgentId) else tuple(sorted(a.index for a in v)) for v in e)


def test_sort_key_orders_as_the_tuple_key():
    # Every label of every type over MAX_AGENTS agents: each agent-id field takes every id, each set field every
    # subset, of every size from 0 to MAX_AGENTS.  The key must be one per label and order them as the tuple.
    ids = universe(MAX_AGENTS)
    sets = [frozenset(c) for c in chain.from_iterable(combinations(ids, k) for k in range(MAX_AGENTS + 1))]
    labels = [
        cls(*vals)
        for cls in EVENT_TYPES.values()
        for vals in product(*(sets if t is frozenset else ids for t in cls.__annotations__.values()))
    ]
    assert len(set(map(sort_key, labels))) == len(labels)
    assert sorted(labels, key=sort_key) == sorted(labels, key=tuple_key)


def test_cross_type_labels_not_equal():
    # Same payload shape must not collapse across event types.
    from mapmerge.events import MergeMaps

    assert ConfirmMerge(req_leader=A1, other_leader=A2) != MergeMaps(req_leader=A1, other_leader=A2)


@pytest.mark.parametrize("types", [EVENT_TYPES.values(), LEADER_PHASES], ids=["events", "phases"])
def test_equality_compares_types(types):
    # Every field of every value is A1, so two types of one arity have equal tuples; only the type tells them apart.
    values = [cls(*[A1] * len(cls._fields)) for cls in types]
    assert any(tuple(x) == tuple(y) for x, y in combinations(values, 2))
    for x, y in combinations(values, 2):
        assert not x == y and x != y
    for x in values:
        assert x == type(x)(*x) and not x != type(x)(*x)
        assert hash(x) == hash(tuple(x))
