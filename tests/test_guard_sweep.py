"""The guard sweep: each operand of every `and` in the process guards,
replaced by True one at a time, is either told apart from the model by an
oracle or survives with a written reason (Black, Okun & Yesha, "Mutation
Operators for Specifications", ASE 2000).

The operands are read from the `ast` of the five functions below, so a new
guard conjunct fails `test_every_operand_is_pinned` until it is pinned here.
Each mutant runs in-process through `conftest.mutant`, and an oracle kills
it when its output differs from the unmutated model's output, or when it
raises AttributeError or IndexError.
"""

import ast
import inspect
import textwrap
from collections import Counter
from functools import cache

import pytest

from mapmerge import processes
from mapmerge.cli import _strip_timings, verify
from mapmerge.events import RequestLeader
from mapmerge.explorer import explore
from mapmerge.scenarios import builtin_scenarios, check_scenario
from mapmerge.world import initial_config

from conftest import mutant
from graph_reference import edges, states
from test_successors import alphabet, reference, successors

FUNCTIONS = ("agent_moves", "agent_accept", "leader_moves", "leader_accept", "_after_update")


def operands(name: str) -> list:
    """Each `and` operand of `processes.<name>` in source order, as (key,
    slice of the dedented source); the key is (name, the operand's text, how
    many equal operands precede it)."""
    source = textwrap.dedent(inspect.getsource(getattr(processes, name)))
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    spans = sorted(
        (starts[v.lineno - 1] + v.col_offset, starts[v.end_lineno - 1] + v.end_col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And)
        for v in node.values
    )
    seen, out = Counter(), []
    for start, stop in spans:
        text = source[start:stop]
        out.append(((name, text, seen[text]), slice(start, stop)))
        seen[text] += 1
    return out


OPERANDS = [op for name in FUNCTIONS for op in operands(name)]


def report(n: int, **flags) -> dict:
    # The bound only cuts a mutant whose graph outgrows the model's many times over.
    return _strip_timings(verify(initial_config(n, **flags), max_states=20_000)[1])


def requests_in_flight() -> int:
    """The request_leader transitions of the n=3, merge_set_max=2 graph that
    a leader sends while it still awaits the reply to an earlier one."""
    g = explore(initial_config(3, merge_set_max=2), max_states=20_000, checks=[])
    labels, count = g.model.labels, 0
    for i, ev, _ in edges(g):
        e = labels[ev]
        count += isinstance(e, RequestLeader) and g.state(i).leader(e.req_leader).phase.current is not None
    return count


def scenarios(n: int) -> list:
    c0 = initial_config(n)
    return [(r.name, r.found, r.witness) for r in (check_scenario(s, c0) for s in builtin_scenarios())]


def differential() -> list:
    """The n=2 states whose compiled successors differ from apply_event's over the full alphabet."""
    labels = alphabet(2)
    g = explore(initial_config(2), checks=[])
    return [c for c in states(g) if successors(c, g.model) != reference(c, labels)]


# Every mutant runs these in order, up to the first kill.
ORACLES = {
    "verify-n2": lambda: report(2),
    "verify-n3": lambda: report(3),
    "scenarios-n3": lambda: scenarios(3),
    "scenarios-n4": lambda: scenarios(4),
    "differential-n2": differential,
}
# The mutants that change only a variant's graph also run on that variant.
VARIANT_ORACLES = {
    "requests-in-flight-n3-merge_set_max=2": requests_in_flight,
    "verify-n3-no-harness": lambda: report(3, harness=False),
}
VARIANT_OF = {
    ("leader_moves", "ph.current is None", 0): ["requests-in-flight-n3-merge_set_max=2"],
    ("_after_update", "params.harness", 0): ["verify-n3-no-harness"],
}

# Each killed operand: the first oracle that kills it, and the exception it
# raises there, or None for a kill by output.  The crashes follow a dropped
# isinstance test: the next field access fails on another phase or label.
KILLED = {
    ("agent_accept", "isinstance(e, (UpdateIdentified, UpdateIdentifiedSameGroup))", 0): (
        "verify-n2", "AttributeError"
    ),
    ("leader_moves", "isinstance(ph, AwaitReplyLeader)", 0): ("verify-n2", "AttributeError"),
    ("leader_moves", "ph.current is None", 0): ("requests-in-flight-n3-merge_set_max=2", None),
    ("leader_moves", "isinstance(ph, Updating)", 0): ("verify-n2", "AttributeError"),
    ("leader_moves", "ph.same_group_pending", 0): ("verify-n2", "IndexError"),
    ("leader_moves", "isinstance(ph, Updating)", 1): ("verify-n2", "AttributeError"),
    ("leader_accept", "isinstance(ph, AwaitRequest)", 0): ("verify-n2", None),
    ("leader_accept", "isinstance(e, ConfirmMerge)", 0): ("verify-n2", None),
    ("leader_accept", "s.id != e.req_leader", 0): ("differential-n2", None),
    ("leader_accept", "isinstance(ph, AwaitRequest)", 1): ("verify-n2", None),
    ("leader_accept", "s.active", 1): ("verify-n3", None),
    ("leader_accept", "isinstance(e, MergeCancelled)", 0): ("verify-n2", None),
    ("leader_accept", "isinstance(ph, AwaitVerdict)", 0): ("differential-n2", "AttributeError"),
    ("leader_accept", "isinstance(e, MergeConfirmed)", 0): ("differential-n2", "AttributeError"),
    ("leader_accept", "isinstance(ph, AwaitVerdict)", 1): ("differential-n2", "AttributeError"),
    ("leader_accept", "isinstance(e, MergeMaps)", 0): ("verify-n2", None),
    ("leader_accept", "isinstance(ph, BeingMerged)", 0): ("differential-n2", "AttributeError"),
    ("leader_accept", "isinstance(e, MergeCompleted)", 0): ("differential-n2", "AttributeError"),
    ("leader_accept", "isinstance(ph, AwaitCompletion)", 0): ("differential-n2", "AttributeError"),
    ("_after_update", "params.harness", 0): ("verify-n3-no-harness", None),
    ("_after_update", "s.agent_set == full_set(params.n)", 0): ("verify-n3", None),
}

# Each surviving operand, with why no reachable offer and no label of the
# differential's alphabet that the other participants offer ever fails it.
# They are handshake and dispatch guards of the specification, kept as such.
SURVIVES = {
    ("agent_accept", "s.id in e.new_set", 0): (
        "a leader sends update_identified* only with its own agent set, which holds the agent"
    ),
    ("leader_moves", "ph.queue", 0): (
        "no AwaitReplyLeader without a current target has an empty queue: merge sets are nonempty and "
        "_continue_queue idles on an empty queue"
    ),
    ("leader_moves", "ph.other_group_pending", 0): (
        "the last branch of Updating, which always owes an update: _after_update leaves it once both tuples "
        "are empty"
    ),
    ("leader_accept", "s.active", 0): (
        "request_merge goes to the agent's believed leader, and a demoted one fails `e.agent in s.agent_set` "
        "with its empty set"
    ),
    ("leader_accept", "e.agent in s.agent_set", 0): (
        "an agent's believed leader holds it while active, as agent sets only grow; `s.active` refuses a "
        "demoted one"
    ),
    ("leader_accept", "e.merge_set", 0): (
        "agent_moves offers no empty merge set, and the differential's alphabet holds none"
    ),
    ("leader_accept", "not (e.merge_set & s.agent_set)", 0): (
        "an idle leader's agents know its whole set, and an agent asks only for agents outside its known "
        "group"
    ),
    ("leader_accept", "isinstance(ph, AwaitReplyLeader)", 0): (
        "an agent replies only to a pending request_leader, and its leader waits in AwaitReplyLeader for that"
        " reply"
    ),
    ("leader_accept", "ph.current == e.target_agent", 0): (
        "a leader has one request_leader in flight, so the only reply it meets is from ph.current"
    ),
    ("leader_accept", "s.id != e.other_leader", 0): (
        "merge_cancelled.L.L would need L awaiting its own verdict, and no leader confirms towards itself"
    ),
    ("leader_accept", "ph.other_leader == e.other_leader", 0): (
        "a leader owes merge_cancelled only to a leader whose confirm_merge it took, which awaits that "
        "verdict alone"
    ),
    ("leader_accept", "s.id != e.other_leader", 1): (
        "merge_confirmed.L.L would need L considering its own confirm_merge, which the killed `s.id != "
        "e.req_leader` refuses"
    ),
    ("leader_accept", "ph.other_leader == e.other_leader", 1): (
        "only the leader that a confirm_merge went to is Considering it, so only it confirms"
    ),
    ("leader_accept", "e.other_agent_set", 0): (
        "only an active leader enters Considering, and an active leader's agent set holds itself"
    ),
    ("leader_accept", "not (e.other_agent_set & s.agent_set)", 0): "the agent sets of two active leaders are disjoint",
    ("leader_accept", "s.id != e.req_leader", 1): (
        "merge_maps.L.L would need L BeingMerged by itself, which no leader enters"
    ),
    ("leader_accept", "ph.req_leader == e.req_leader", 0): (
        "only the leader that a leader confirmed to is Merging with it"
    ),
    ("leader_accept", "s.id != e.req_leader", 2): (
        "merge_completed.L.L would need L awaiting its own completion, which no leader enters"
    ),
    ("leader_accept", "ph.req_leader == e.req_leader", 1): (
        "only the leader that merged a leader owes it a merge_completed"
    ),
}


@cache
def unmutated() -> dict:
    return {name: oracle() for name, oracle in (ORACLES | VARIANT_ORACLES).items()}


def first_kill(key, where: slice):
    """The first oracle whose output differs under the mutant, with the
    exception it raised or None, or None if every oracle agrees."""
    expected, oracles = unmutated(), ORACLES | VARIANT_ORACLES
    with mutant(key[0], (where, "True")):
        for name in [*ORACLES, *VARIANT_OF.get(key, ())]:
            try:
                out = oracles[name]()
            except (AttributeError, IndexError) as exc:
                return name, type(exc).__name__
            if out != expected[name]:
                return name, None
    return None


def test_every_operand_is_pinned():
    keys = [key for key, _ in OPERANDS]
    assert len(keys) == len(set(keys)) == 40
    assert not KILLED.keys() & SURVIVES.keys()
    assert set(keys) == KILLED.keys() | SURVIVES.keys()
    assert VARIANT_OF.keys() <= KILLED.keys()
    crashes = Counter(exc is not None for _, exc in KILLED.values())
    assert (crashes[False], crashes[True], len(SURVIVES)) == (10, 11, 19)


@pytest.mark.parametrize("key, where", OPERANDS, ids=[f"{name}:{text}:{k}" for (name, text, k), _ in OPERANDS])
def test_operand_mutant(key, where):
    assert first_kill(key, where) == KILLED.get(key)
