import pytest

from mapmerge.events import (
    ConfirmMerge,
    Done,
    MergeCancelled,
    MergeCompleted,
    MergeConfirmed,
    MergeMaps,
    RemoveReasoningAbout,
    ReplyLeader,
    RequestLeader,
    RequestMerge,
    BeginMerge,
    Terminate,
    UpdateIdentified,
    UpdateIdentifiedSameGroup,
)
from mapmerge.ids import AgentId
from mapmerge.processes import (
    AwaitReplyLeader,
    AwaitVerdict,
    Completing,
    Confirming,
    Considering,
    DonePhase,
    Merging,
    Refusing,
    StartMerge,
    Terminated,
    Terminating,
    Updating,
    agent_step,
    initial_agent,
    initial_leader,
    is_quiescent,
    leader_step,
)
from mapmerge.world import ModelParams

from conftest import ACTIVE_MUTANT, PRIORITY_MUTANT, mutant

A1, A2, A3 = AgentId(1), AgentId(2), AgentId(3)
PARAMS = ModelParams(n=3)
FULL = frozenset({A1, A2, A3})


# ---------------------------------------------------------------- agent side


def test_agent_request_merge_sets_flag():
    s = initial_agent(A2)
    e = RequestMerge(agent=A2, leader=A2, merge_set=frozenset({A3}))
    s2 = agent_step(s, e, PARAMS)
    assert s2 is not None and s2.has_outstanding_request


def test_agent_refuses_second_request_while_outstanding():
    s = initial_agent(A2)._replace(has_outstanding_request=True)
    e = RequestMerge(agent=A2, leader=A2, merge_set=frozenset({A3}))
    assert agent_step(s, e, PARAMS) is None


def test_agent_refuses_request_to_wrong_leader():
    s = initial_agent(A2)
    e = RequestMerge(agent=A2, leader=A1, merge_set=frozenset({A3}))
    assert agent_step(s, e, PARAMS) is None


def test_agent_refuses_merge_set_overlapping_known_group():
    s = initial_agent(A2)._replace(known_group=frozenset({A2, A3}))
    e = RequestMerge(agent=A2, leader=A2, merge_set=frozenset({A3}))
    assert agent_step(s, e, PARAMS) is None


def test_agent_reply_reports_current_leader_only():
    s = initial_agent(A3)._replace(pending_leader_queries=frozenset({A1}))
    ok = ReplyLeader(target_agent=A3, req_leader=A1, its_leader=A3)
    stale = ReplyLeader(target_agent=A3, req_leader=A1, its_leader=A2)
    assert agent_step(s, ok, PARAMS) is not None
    assert agent_step(s, stale, PARAMS) is None
    assert agent_step(s, ok, PARAMS).pending_leader_queries == frozenset()


def test_agent_update_identified_moves_group():
    s = initial_agent(A2)._replace(has_outstanding_request=True)
    e = UpdateIdentified(leader=A1, agent=A2, new_set=frozenset({A1, A2}))
    s2 = agent_step(s, e, PARAMS)
    assert s2.believed_leader == A1
    assert s2.known_group == frozenset({A1, A2})
    assert not s2.has_outstanding_request


def test_agent_update_same_group_keeps_leader():
    s = initial_agent(A1)
    e = UpdateIdentifiedSameGroup(leader=A1, agent=A1, new_set=frozenset({A1, A2}))
    s2 = agent_step(s, e, PARAMS)
    assert s2.believed_leader == A1
    assert s2.known_group == frozenset({A1, A2})


def test_agent_rejects_update_excluding_itself():
    s = initial_agent(A2)
    e = UpdateIdentified(leader=A1, agent=A2, new_set=frozenset({A1}))
    assert agent_step(s, e, PARAMS) is None


def test_agent_remove_reasoning_clears_flag():
    s = initial_agent(A2)._replace(has_outstanding_request=True)
    e = RemoveReasoningAbout(req_agent=A2, other_agent=A3)
    assert not agent_step(s, e, PARAMS).has_outstanding_request
    assert agent_step(initial_agent(A2), e, PARAMS) is None


# --------------------------------------------------------------- leader side


def run_leader(s, events):
    for e in events:
        s = leader_step(s, e, PARAMS)
        assert s is not None, f"refused: {e}"
    return s


def test_leader_happy_path_pair_merge():
    s = initial_leader(A1)
    s = run_leader(
        s,
        [
            RequestMerge(agent=A1, leader=A1, merge_set=frozenset({A2})),
            BeginMerge(leader=A1),
            RequestLeader(req_leader=A1, target_agent=A2),
            ReplyLeader(target_agent=A2, req_leader=A1, its_leader=A2),
            ConfirmMerge(req_leader=A1, other_leader=A2),
            MergeConfirmed(req_leader=A1, other_leader=A2, other_agent_set=frozenset({A2})),
            MergeMaps(req_leader=A1, other_leader=A2),
        ],
    )
    assert s.agent_set == frozenset({A1, A2})
    assert isinstance(s.phase, Completing)
    s = run_leader(
        s,
        [
            MergeCompleted(req_leader=A1, other_leader=A2, union_set=frozenset({A1, A2})),
            UpdateIdentifiedSameGroup(leader=A1, agent=A1, new_set=frozenset({A1, A2})),
            UpdateIdentified(leader=A1, agent=A2, new_set=frozenset({A1, A2})),
        ],
    )
    # Universe is {A1,A2,A3}, so the merged pair is not done yet.
    assert is_quiescent(s)
    assert not isinstance(s.phase, DonePhase)


def test_leader_reaches_done_on_full_universe():
    s = initial_leader(A1)._replace(agent_set=frozenset({A1, A2}))
    s = s._replace(phase=Updating((), (A3,)), agent_set=FULL)
    s = run_leader(s, [UpdateIdentified(leader=A1, agent=A3, new_set=FULL)])
    assert isinstance(s.phase, DonePhase)
    s = run_leader(s, [Done(leader=A1), Terminate(leader=A1)])
    assert isinstance(s.phase, Terminated)


def test_leader_no_harness_returns_to_idle():
    params = ModelParams(n=3, harness=False)
    s = initial_leader(A1)._replace(phase=Updating((), (A3,)), agent_set=FULL)
    s = leader_step(s, UpdateIdentified(leader=A1, agent=A3, new_set=FULL), params)
    assert is_quiescent(s) and not isinstance(s.phase, DonePhase)


def test_leader_priority_refusal():
    # A2 asks about A1; A1 has priority, so A2 moves to Refusing.
    s = initial_leader(A2)._replace(phase=AwaitReplyLeader(A2, A1, ()))
    s2 = leader_step(s, ReplyLeader(target_agent=A1, req_leader=A2, its_leader=A1), PARAMS)
    assert isinstance(s2.phase, Refusing)
    s3 = leader_step(s2, RemoveReasoningAbout(req_agent=A2, other_agent=A1), PARAMS)
    assert is_quiescent(s3)


def test_leader_priority_guard_mutation():
    s = initial_leader(A2)._replace(phase=AwaitReplyLeader(A2, A1, ()))
    with mutant(*PRIORITY_MUTANT):
        s2 = leader_step(s, ReplyLeader(target_agent=A1, req_leader=A2, its_leader=A1), PARAMS)
    assert isinstance(s2.phase, Confirming)


def test_leader_drops_target_already_in_own_map():
    s = initial_leader(A1)._replace(
        agent_set=frozenset({A1, A2}), phase=AwaitReplyLeader(A1, A2, ())
    )
    s2 = leader_step(s, ReplyLeader(target_agent=A2, req_leader=A1, its_leader=A1), PARAMS)
    assert is_quiescent(s2)


def test_busy_leader_queues_cancel():
    s = initial_leader(A2)._replace(phase=StartMerge(A2, (A3,)))
    s2 = leader_step(s, ConfirmMerge(req_leader=A1, other_leader=A2), PARAMS)
    assert s2.pending_cancels == frozenset({A1})
    s3 = leader_step(s2, MergeCancelled(req_leader=A1, other_leader=A2), PARAMS)
    assert s3.pending_cancels == frozenset()


def test_demoted_leader_queues_cancel():
    s = initial_leader(A3)._replace(active=False, agent_set=frozenset())
    s2 = leader_step(s, ConfirmMerge(req_leader=A2, other_leader=A3), PARAMS)
    assert s2.pending_cancels == frozenset({A2})
    assert not isinstance(s2.phase, Considering)


def test_active_guard_mutation_lets_demoted_leader_consider():
    s = initial_leader(A3)._replace(active=False, agent_set=frozenset())
    with mutant(*ACTIVE_MUTANT):
        s2 = leader_step(s, ConfirmMerge(req_leader=A2, other_leader=A3), PARAMS)
    assert isinstance(s2.phase, Considering)


def test_cancel_moves_requester_to_refusing():
    s = initial_leader(A1)._replace(phase=AwaitVerdict(A1, A2, A2, ()))
    s2 = leader_step(s, MergeCancelled(req_leader=A1, other_leader=A2), PARAMS)
    assert isinstance(s2.phase, Refusing)


def test_passive_side_demotion():
    s = initial_leader(A2)
    s = run_leader(
        s,
        [
            ConfirmMerge(req_leader=A1, other_leader=A2),
            MergeConfirmed(req_leader=A1, other_leader=A2, other_agent_set=frozenset({A2})),
            MergeMaps(req_leader=A1, other_leader=A2),
            MergeCompleted(req_leader=A1, other_leader=A2, union_set=frozenset({A1, A2})),
        ],
    )
    assert not s.active
    assert s.agent_set == frozenset()


def test_passive_side_checks_advertised_set():
    s = initial_leader(A2)._replace(phase=Considering(A1))
    wrong = MergeConfirmed(req_leader=A1, other_leader=A2, other_agent_set=frozenset({A2, A3}))
    assert leader_step(s, wrong, PARAMS) is None


def test_merging_requires_disjoint_sets():
    s = initial_leader(A1)._replace(phase=AwaitVerdict(A1, A2, A2, ()))
    overlap = MergeConfirmed(req_leader=A1, other_leader=A2, other_agent_set=frozenset({A1}))
    assert leader_step(s, overlap, PARAMS) is None


def test_updates_drain_in_ascending_order():
    s = initial_leader(A1)._replace(
        agent_set=FULL, phase=Updating((A1, A2), (A3,))
    )
    # Other-group update refused while same-group updates remain.
    assert leader_step(s, UpdateIdentified(leader=A1, agent=A3, new_set=FULL), PARAMS) is None
    # Same-group updates must go in queue order.
    assert (
        leader_step(s, UpdateIdentifiedSameGroup(leader=A1, agent=A2, new_set=FULL), PARAMS)
        is None
    )
    s = run_leader(
        s,
        [
            UpdateIdentifiedSameGroup(leader=A1, agent=A1, new_set=FULL),
            UpdateIdentifiedSameGroup(leader=A1, agent=A2, new_set=FULL),
            UpdateIdentified(leader=A1, agent=A3, new_set=FULL),
        ],
    )
    assert isinstance(s.phase, DonePhase)


def test_step_functions_are_pure():
    s = initial_leader(A1)
    e = RequestMerge(agent=A1, leader=A1, merge_set=frozenset({A2}))
    assert leader_step(s, e, PARAMS) == leader_step(s, e, PARAMS)
    assert s == initial_leader(A1)
