"""The verdict of every model that the CLI's model flags select, and the
multi-target merge requests that `--merge-set-max 2` allows."""

import json

import pytest

from mapmerge.cli import main, verify
from mapmerge.events import RequestMerge
from mapmerge.explorer import explore
from mapmerge.world import initial_config

from conftest import OLD_AGENT_GUARD_MUTANT, mutant
from graph_reference import edges

CHECKS = ["invariants", "deadlock-freedom", "divergence-freedom", "goal-inevitable"]
MATRIX = [(n, m, harness) for n in (2, 3) for m in range(1, n) for harness in (True, False)]


def verdicts(report: dict) -> dict:
    return {c["name"]: c["verdict"] for c in report["checks"]}


@pytest.mark.parametrize(
    "n, merge_set_max, harness", MATRIX, ids=[f"n{n}-msm{m}-{'harness' if h else 'no-harness'}" for n, m, h in MATRIX]
)
def test_every_flag_combination_passes(capsys, n, merge_set_max, harness):
    argv = ["explore", "--agents", str(n), "--merge-set-max", str(merge_set_max), "--json"]
    code = main(argv + ([] if harness else ["--no-harness"]))
    report = json.loads(capsys.readouterr().out)
    assert (code, report["verdict"], report["complete"]) == (0, "pass", True)
    assert verdicts(report) == dict.fromkeys(CHECKS, "pass")


def test_multi_target_requests_pass_and_the_old_agent_guard_deadlocks():
    # A leader owes one remove_reasoning_about per refused target of a
    # request, and the agent accepts each; the matrix above checks that the
    # graph passes.  With the old guard the agent refuses every removal
    # after the first, which clears its flag.
    c0 = initial_config(3, merge_set_max=2)
    g = explore(c0, checks=[])
    assert (g.state_count, g.transition_count) == (8929, 28050)
    with mutant(*OLD_AGENT_GUARD_MUTANT):
        _, report = verify(c0)
    assert (report["state_count"], report["transition_count"]) == (8929, 26807)
    assert report["verdict"] == "fail"
    assert verdicts(report) == {**dict.fromkeys(CHECKS, "pass"), "deadlock-freedom": "fail", "goal-inevitable": "fail"}


def request_merges_under_a_naming_leader(max_states=None) -> tuple:
    """How many request_merge transitions the n=3, merge_set_max=2 graph
    holds, and those that fire while some leader's phase names their agent
    as `requesting_agent`."""
    g = explore(initial_config(3, merge_set_max=2), max_states=max_states, checks=[])
    labels, fired, named = g.model.labels, 0, []
    for i, ev, _ in edges(g):
        e = labels[ev]
        if isinstance(e, RequestMerge):
            fired += 1
            if any(getattr(l.phase, "requesting_agent", None) == e.agent for l in g.state(i).leaders):
                named.append((i, e))
    return fired, named


def test_no_request_merge_while_a_leader_names_its_agent():
    # The first removal of a multi-target request clears the agent's flag
    # while its leader still works through the queue.  The leader takes a
    # new request only when idle, after every removal of the old one, so no
    # removal outlives its request and clears the flag of the next.
    assert request_merges_under_a_naming_leader() == (3857, [])
    with mutant("leader_accept", ("isinstance(ph, AwaitRequest)\n            and s.active", "s.active")):
        assert request_merges_under_a_naming_leader(max_states=2000)[1]
