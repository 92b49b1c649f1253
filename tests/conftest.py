import inspect
import json
import os
import sys
import textwrap
from contextlib import contextmanager
from pathlib import Path

import pytest

import mapmerge
from mapmerge import processes, scenarios
from mapmerge.explorer import explore
from mapmerge.world import initial_config

# Criterion 10's guard mutants, as arguments to `mutant`: each drops one
# guard of processes.leader_accept.  REQ1: a leader without priority still
# confirms.  REQ2: a demoted leader still considers a confirm_merge.
PRIORITY_MUTANT = ("leader_accept", ("if priority(s.id, other) != s.id:", "if False:"))
ACTIVE_MUTANT = ("leader_accept", ("isinstance(ph, AwaitRequest) and s.active", "isinstance(ph, AwaitRequest)"))
# Mutants that fire active-monotone away from merge_completed, on merge_maps:
# the merged leader is also demoted when the maps merge, or the merging
# leader takes the other agent set in place of the union of both.
# DEMOTE_ON_MERGE_MUTANT fails invariants, but no scenario can show it: it only
# moves the point where the merged leader's (active, agent_set) falls, from
# merge_completed to merge_maps.  In between the leader waits in
# AwaitCompletion, where no guard or move reads either field, so its graph has
# the plain model's transitions, label for label
# (tests/test_scenarios.py::test_graph_identical_mutant_shows_in_no_trace).
DEMOTE_ON_MERGE_MUTANT = (
    "leader_accept",
    (
        "return s._replace(phase=AwaitCompletion(e.req_leader))",
        "return s._replace(active=False, agent_set=frozenset(), phase=AwaitCompletion(e.req_leader))",
    ),
)
REPLACE_SET_MUTANT = ("leader_moves", ("agent_set=s.agent_set | ph.other_agent_set,", "agent_set=ph.other_agent_set,"))
# The agent guard before multi-target requests were mended: an agent refuses
# every remove_reasoning_about after the first of one request, which clears
# its flag, so n=3 with merge_set_max=2 deadlocks.
OLD_AGENT_GUARD_MUTANT = (
    "agent_accept",
    ("isinstance(e, RemoveReasoningAbout):", "isinstance(e, RemoveReasoningAbout) and s.has_outstanding_request:"),
)
# The guard-sweep operand of _after_update whose drop makes a leader done after its first merge.
DONE_AFTER_FIRST_MERGE_MUTANT = ("_after_update", ("s.agent_set == full_set(params.n)", "True"))
# Operand #0 of leader_accept's request_merge guard dropped: a busy leader takes a new request.
BUSY_LEADER_MUTANT = ("leader_accept", ("isinstance(ph, AwaitRequest)\n", "True\n"))
# Mutants that each break one state invariant whose check is gated, so that the
# differential sees every gate open: an agent leaves itself out of its known
# group (local-state), an update_identified leaves the agent's believed leader
# as it was (quiescent-partition), a leader never answers a cancelled request
# (req2-cancel-answered).
# OWN_GROUP_MUTANT fails invariants on every model ("A1 missing from its own
# known group"), but no scenario can show it: the self-including request_merge
# offers that it adds are always refused, so its graph has the plain model's
# transitions, label for label
# (tests/test_scenarios.py::test_graph_identical_mutant_shows_in_no_trace).
OWN_GROUP_MUTANT = ("agent_accept", ("known_group=e.new_set,", "known_group=e.new_set - {s.id},"))
STALE_LEADER_MUTANT = ("agent_accept", ("s = s._replace(believed_leader=e.leader)", "pass"))
UNANSWERED_CANCEL_MUTANT = (
    "leader_moves",
    ("for rq in sorted(s.pending_cancels)", "for rq in sorted(s.pending_cancels) if False"),
)

# The built-in scenarios' own JSON objects, as the package's scenario file holds them, by name in file order.
BUILTIN_JSON = {
    d["name"]: d for d in json.loads(Path(scenarios.__file__).with_name("scenarios.json").read_text(encoding="utf-8"))
}


@contextmanager
def installed(name: str, fn):
    """Run the block with `fn` in place of `processes.<name>` on every mapmerge
    module that binds the original, restored on exit.  Each search compiles
    its own model, so one built in the block sees `fn` alone."""
    original = getattr(processes, name)
    homes = [
        m for k, m in list(sys.modules.items()) if k.partition(".")[0] == "mapmerge" and vars(m).get(name) is original
    ]
    for m in homes:
        setattr(m, name, fn)
    try:
        yield
    finally:
        for m in homes:
            setattr(m, name, original)


@contextmanager
def mutant(name: str, *edits):
    """Run the block with `processes.<name>` rebuilt from its dedented source
    with each (fragment, replacement) edit made, `installed` in place of the
    original.  A fragment is either a string, which must occur exactly once,
    or a slice of the source as the earlier edits left it."""
    source = textwrap.dedent(inspect.getsource(getattr(processes, name)))
    for fragment, replacement in edits:
        if isinstance(fragment, slice):
            source = source[: fragment.start] + replacement + source[fragment.stop :]
            continue
        assert source.count(fragment) == 1, f"{fragment!r} occurs {source.count(fragment)} times in {name}"
        source = source.replace(fragment, replacement)
    scope = dict(vars(processes))
    exec(compile(source, f"<mutant of processes.{name}>", "exec"), scope)
    with installed(name, scope[name]):
        yield


@contextmanager
def variant(n: int, spec):
    """The initial configuration of an n-agent model variant, for the block.
    `spec` is either initial_config flags (a dict) or a mutant (a tuple of
    `mutant`'s arguments), installed for the block."""
    if isinstance(spec, dict):
        yield initial_config(n, **spec)
    else:
        with mutant(*spec):
            yield initial_config(n)


@pytest.fixture(scope="session")
def graph_n2():
    return explore(initial_config(2))


@pytest.fixture(scope="session")
def graph_n3():
    return explore(initial_config(3))


@pytest.fixture
def src_env():
    """The environment for a child interpreter that imports this mapmerge."""
    src = str(Path(mapmerge.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
