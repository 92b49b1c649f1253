import pytest
from hypothesis import given, strategies as st

from mapmerge.ids import AgentId, priority, universe

agent_ids = st.integers(min_value=1, max_value=12).map(AgentId)


def test_parse_roundtrip():
    assert AgentId.parse("A3") == AgentId(3)
    assert AgentId(7).name == "A7"


def test_str_is_the_name():
    # A NamedTuple's str() goes through its __repr__, so f-strings and %s print the name.
    a = AgentId(3)
    assert str(a) == f"{a}" == "%s" % (a,) == repr(a) == a.name == "A3"


@pytest.mark.parametrize("bad", ["A0", "a1", "B2", "A-1", "A1x", ""])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        AgentId.parse(bad)


def test_priority_examples():
    a1, a2, a3 = universe(3)
    assert priority(a1, a2) == a1
    assert priority(a2, a2) == a2
    assert priority(a3, a2) == a2


@given(agent_ids, agent_ids)
def test_priority_commutative(a, b):
    assert priority(a, b) == priority(b, a)


@given(agent_ids, agent_ids, agent_ids)
def test_priority_associative(a, b, c):
    assert priority(priority(a, b), c) == priority(a, priority(b, c))


@given(agent_ids)
def test_priority_idempotent(a):
    assert priority(a, a) == a


@given(agent_ids, agent_ids)
def test_priority_picks_one_side(a, b):
    if a != b:
        assert (priority(a, b) == a) != (priority(a, b) == b)


def test_universe_indices_unique():
    ids = universe(5)
    assert len(set(ids)) == 5
    assert all(a.index >= 1 for a in ids)
