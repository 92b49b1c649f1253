import pytest
from hypothesis import given, strategies as st

from mapmerge.events import (
    Agent,
    BeginMerge,
    ConfirmMerge,
    Done,
    EVENT_TYPES,
    InvalidEventError,
    Leader,
    MergeCompleted,
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
from mapmerge.ids import AgentId

A1, A2, A3 = AgentId(1), AgentId(2), AgentId(3)


def test_participants_request_merge():
    e = RequestMerge(agent=A2, leader=A1, merge_set=frozenset({A3}))
    assert participants(e) == frozenset({Agent(A2), Leader(A1)})


def test_participants_leader_pair():
    e = ConfirmMerge(req_leader=A1, other_leader=A3)
    assert participants(e) == frozenset({Leader(A1), Leader(A3)})


def test_participants_update():
    e = UpdateIdentified(leader=A1, agent=A2, new_set=frozenset({A1, A2}))
    assert participants(e) == frozenset({Leader(A1), Agent(A2)})


def test_participants_remove_reasoning_is_agent_side():
    # The handling leader is resolved from the configuration, not the label.
    e = RemoveReasoningAbout(req_agent=A2, other_agent=A1)
    assert participants(e) == frozenset({Agent(A2)})


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
    for f in cls.__dataclass_fields__.values():
        if f.name in ("merge_set", "other_agent_set", "union_set", "new_set"):
            kwargs[f.name] = draw(id_sets)
        else:
            kwargs[f.name] = draw(ids)
    return cls(**kwargs)


@given(events())
def test_json_roundtrip_property(e):
    assert from_json(to_json(e)) == e


@given(st.lists(events(), max_size=8))
def test_sort_events_is_order_insensitive(es):
    assert sorted(es, key=sort_key) == sorted(reversed(es), key=sort_key)


def test_cross_type_labels_not_equal():
    # Same payload shape must not collapse across event types.
    from mapmerge.events import MergeMaps

    assert ConfirmMerge(req_leader=A1, other_leader=A2) != MergeMaps(req_leader=A1, other_leader=A2)
