"""The test-side model mutants of `conftest.mutant`: each is a process
function rebuilt with one guard edited, installed only for a block."""

import hashlib
import io
from collections import Counter

import pytest

from mapmerge import processes, world
from mapmerge.events import MergeCompleted, MergeMaps
from mapmerge.explorer import explore
from mapmerge.export import export_graph
from mapmerge.world import initial_config

from conftest import ACTIVE_MUTANT, DEMOTE_ON_MERGE_MUTANT, PRIORITY_MUTANT, REPLACE_SET_MUTANT, mutant

# The requester's side of merge_confirmed, in processes.leader_accept: it
# accepts only a nonempty agent set.
NONEMPTY_CONFIRMED = ("            and e.other_agent_set\n", "")


def exported(g) -> str:
    out = io.StringIO()
    export_graph(g, "json", out)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


# Each mutant's n=3 graph and verdicts.  The two guard mutants are pinned to
# the graphs of the ModelParams flags they replace.
@pytest.mark.parametrize(
    "spec, digest, states, transitions, violations",
    [
        (PRIORITY_MUTANT, "a30eb48b20fa7400", 3874, 10530, {"req1-priority": 744}),
        (ACTIVE_MUTANT, "31f3db0b9d7aef7c", 1905, 5484, {"req2-cancel-answered": 26}),
        (
            ("leader_accept", ACTIVE_MUTANT[1], NONEMPTY_CONFIRMED),
            "0f1dfbbe9c5cb15b",
            1983,
            5672,
            {"req2-confirm-active": 26, "req2-cancel-answered": 78, "active-monotone": 26},
        ),
        (DEMOTE_ON_MERGE_MUTANT, "044176b2733d062f", 1879, 5456, {"active-monotone": 76, "req2-cancel-answered": 38}),
        (REPLACE_SET_MUTANT, "401aa359a8d1d624", 1419, 4463, {"local-state": 66, "active-monotone": 33}),
    ],
    ids=["priority_guard", "active_guard", "active_guard+nonempty_confirmed", "demote_on_merge", "replace_set"],
)
def test_mutant_graph_and_violations_at_n3(spec, digest, states, transitions, violations):
    with mutant(*spec):
        g = explore(initial_config(3))
    assert (g.state_count, g.transition_count) == (states, transitions)
    assert Counter(v.check for v in g.violations) == violations
    assert exported(g) == digest


def test_req2_confirm_active_catches_a_demoted_leader_confirming():
    # With both guards dropped, a demoted leader considers a confirm_merge and
    # the requester takes its empty agent set: the check sees the demoted
    # leader in the merge_confirmed.
    with mutant("leader_accept", ACTIVE_MUTANT[1], NONEMPTY_CONFIRMED):
        g = explore(initial_config(3))
    caught = [v for v in g.violations if v.check == "req2-confirm-active"]
    assert caught
    for v in caught:
        before, e = g.state(v.idx), v.event
        assert e.other_agent_set == frozenset() and not before.leader(e.other_leader).active


@pytest.mark.parametrize(
    "spec, events",
    [(DEMOTE_ON_MERGE_MUTANT, {MergeMaps: 38, MergeCompleted: 38}), (REPLACE_SET_MUTANT, {MergeMaps: 33})],
    ids=["demote_on_merge", "replace_set"],
)
def test_active_monotone_fires_away_from_merge_completed(spec, events):
    # A gate on active-monotone that admitted merge_completed alone would miss
    # the merge_maps witnesses.
    with mutant(*spec):
        g = explore(initial_config(3))
    assert Counter(type(v.event) for v in g.violations if v.check == "active-monotone") == events


def test_mutant_is_installed_for_the_block_only():
    originals = processes.agent_moves, processes.leader_accept
    with mutant("agent_moves", ("if not s.has_outstanding_request:", "if False:")):
        assert world.agent_moves is processes.agent_moves is not originals[0]
        g = explore(initial_config(3), checks=[])
        assert g.state_count == 1  # no agent ever asks for a merge
    assert (processes.agent_moves, processes.leader_accept) == originals
    assert world.agent_moves is processes.agent_moves


@pytest.mark.parametrize("fragment", ["isinstance(ph, AwaitRequest)", "no such code"])
def test_mutant_fragment_must_occur_once(fragment):
    with pytest.raises(AssertionError):
        with mutant("leader_accept", (fragment, "True")):
            pass
    assert processes.leader_accept.__code__.co_filename == processes.__file__
