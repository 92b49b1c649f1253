"""Per-process state machines: one AGENT and one MAP_LEADER record per
configured id, with pure partial step functions over immutable state.

Each process is a guarded choice, stated once: `*_moves` lists the events
the process initiates with the state each leads to, and `*_accept` takes the
events it joins passively.  A step is the matching move, else acceptance; it
returns None when the process refuses the event in its current state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import NamedTuple, Optional

from .events import (
    BeginMerge,
    ConfirmMerge,
    Done,
    EventLabel,
    MergeCancelled,
    MergeCompleted,
    MergeConfirmed,
    MergeMaps,
    RemoveReasoningAbout,
    ReplyLeader,
    RequestLeader,
    RequestMerge,
    Terminate,
    UpdateIdentified,
    UpdateIdentifiedSameGroup,
)
from .ids import AgentId, priority, universe

# --------------------------------------------------------------------------
# Leader phases.
#
# The protocol phases named in the merge flow are AwaitRequest,
# AwaitReplyLeader, Confirming, Merging, Updating, Done and Terminated.  The
# remaining variants are micro-steps that keep every transition a
# single-event rendezvous: StartMerge sits between accepting a request and
# the internal begin_merge; AwaitVerdict separates sending confirm_merge
# from receiving the verdict; Refusing owes a remove_reasoning_about;
# Completing owes the merge_completed and Updating the updates, each naming
# the agent_set that merge_maps left; Considering/BeingMerged/
# AwaitCompletion are the passive (other-leader) side of a merge;
# Terminating sits between done and terminate.
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AwaitRequest:
    pass


@dataclass(frozen=True, slots=True)
class StartMerge:
    requesting_agent: AgentId
    queue: tuple


@dataclass(frozen=True, slots=True)
class AwaitReplyLeader:
    requesting_agent: AgentId
    current: Optional[AgentId]
    queue: tuple


@dataclass(frozen=True, slots=True)
class Confirming:
    requesting_agent: AgentId
    other_agent: AgentId
    other_leader: AgentId
    queue: tuple


@dataclass(frozen=True, slots=True)
class AwaitVerdict:
    requesting_agent: AgentId
    other_agent: AgentId
    other_leader: AgentId
    queue: tuple


@dataclass(frozen=True, slots=True)
class Refusing:
    requesting_agent: AgentId
    other_agent: AgentId
    queue: tuple


@dataclass(frozen=True, slots=True)
class Merging:
    other_leader: AgentId
    other_agent_set: frozenset


@dataclass(frozen=True, slots=True)
class Completing:
    other_leader: AgentId
    same_pending: tuple
    other_pending: tuple


@dataclass(frozen=True, slots=True)
class Updating:
    same_group_pending: tuple
    other_group_pending: tuple


@dataclass(frozen=True, slots=True)
class Considering:
    req_leader: AgentId


@dataclass(frozen=True, slots=True)
class BeingMerged:
    req_leader: AgentId


@dataclass(frozen=True, slots=True)
class AwaitCompletion:
    req_leader: AgentId


@dataclass(frozen=True, slots=True)
class DonePhase:
    pass


@dataclass(frozen=True, slots=True)
class Terminating:
    pass


@dataclass(frozen=True, slots=True)
class Terminated:
    pass


AWAIT_REQUEST = AwaitRequest()

# Phases in which the leader has nothing in flight.
QUIESCENT_PHASES = (AwaitRequest, DonePhase, Terminating, Terminated)


class AgentProcState(NamedTuple):
    """One agent's knowledge: its leader, its group, and its obligations."""

    id: AgentId
    believed_leader: AgentId
    known_group: frozenset
    pending_leader_queries: frozenset
    has_outstanding_request: bool


class LeaderProcState(NamedTuple):
    """One map-leader process.

    `pending_cancels` holds requesting leaders whose confirm_merge arrived
    while this leader was busy or demoted; each is owed a merge_cancelled.
    """

    id: AgentId
    active: bool
    agent_set: frozenset
    phase: object
    pending_cancels: frozenset


def initial_agent(a: AgentId) -> AgentProcState:
    return AgentProcState(a, a, frozenset({a}), frozenset(), False)


def initial_leader(a: AgentId) -> LeaderProcState:
    return LeaderProcState(a, True, frozenset({a}), AWAIT_REQUEST, frozenset())


@cache
def full_set(n: int) -> frozenset:
    """The whole agent universe A1..An as a set."""
    return frozenset(universe(n))


def agent_moves(s: AgentProcState, params) -> list:
    """The events agent `s` initiates, as (label, next state).  Spontaneous
    merge requests stand in for the identification strategy: any agent may
    ask its leader to merge with up to merge_set_max agents it does not know.
    Each pending query is answered with the agent's current believed leader."""
    moves = []
    if not s.has_outstanding_request:
        eligible, asking = sorted(full_set(params.n) - s.known_group), s._replace(has_outstanding_request=True)
        moves += [
            (RequestMerge(s.id, s.believed_leader, frozenset(combo)), asking)
            for size in range(1, min(params.merge_set_max, len(eligible)) + 1)
            for combo in combinations(eligible, size)
        ]
    moves += [
        (ReplyLeader(s.id, l, s.believed_leader), s._replace(pending_leader_queries=s.pending_leader_queries - {l}))
        for l in sorted(s.pending_leader_queries)
    ]
    return moves


def agent_accept(s: AgentProcState, e: EventLabel) -> Optional[AgentProcState]:
    """Successor of agent `s` under an event another process initiates, or None when refused."""
    if isinstance(e, RequestLeader) and e.target_agent == s.id:
        return s._replace(pending_leader_queries=s.pending_leader_queries | {e.req_leader})
    if isinstance(e, (UpdateIdentified, UpdateIdentifiedSameGroup)) and e.agent == s.id and s.id in e.new_set:
        if isinstance(e, UpdateIdentified):
            s = s._replace(believed_leader=e.leader)
        return s._replace(known_group=e.new_set, has_outstanding_request=False)
    if isinstance(e, RemoveReasoningAbout) and e.req_agent == s.id and s.has_outstanding_request:
        return s._replace(has_outstanding_request=False)
    return None


def agent_step(s: AgentProcState, e: EventLabel, params) -> Optional[AgentProcState]:
    """Successor of one agent process under `e`, or None when refused."""
    for move, nxt in agent_moves(s, params):
        if move == e:
            return nxt
    return agent_accept(s, e)


def _continue_queue(s: LeaderProcState, requesting_agent: AgentId, queue: tuple) -> LeaderProcState:
    """After a refused or dropped target: next target, or back to idle."""
    if queue:
        return s._replace(phase=AwaitReplyLeader(requesting_agent, None, queue))
    return s._replace(phase=AWAIT_REQUEST)


def _after_update(s: LeaderProcState, same_rest: tuple, other_rest: tuple, params):
    if same_rest or other_rest:
        return s._replace(phase=Updating(same_rest, other_rest))
    if params.harness and s.agent_set == full_set(params.n):
        return s._replace(phase=DonePhase())
    return s._replace(phase=AWAIT_REQUEST)


def leader_moves(s: LeaderProcState, params) -> list:
    """The events leader `s` initiates, as (label, next state): at most one
    from its phase, then one merge_cancelled per owed cancellation.  `params`
    gives the universe and the harness flag for the done check."""
    ph, move = s.phase, None
    if isinstance(ph, StartMerge):
        move = BeginMerge(s.id), s._replace(phase=AwaitReplyLeader(ph.requesting_agent, None, ph.queue))
    elif isinstance(ph, AwaitReplyLeader) and ph.current is None and ph.queue:
        t = ph.queue[0]
        move = RequestLeader(s.id, t), s._replace(phase=AwaitReplyLeader(ph.requesting_agent, t, ph.queue[1:]))
    elif isinstance(ph, Confirming):
        move = ConfirmMerge(s.id, ph.other_leader), s._replace(
            phase=AwaitVerdict(ph.requesting_agent, ph.other_agent, ph.other_leader, ph.queue)
        )
    elif isinstance(ph, Considering):
        move = MergeConfirmed(ph.req_leader, s.id, s.agent_set), s._replace(phase=BeingMerged(ph.req_leader))
    elif isinstance(ph, Merging):
        move = MergeMaps(s.id, ph.other_leader), s._replace(
            agent_set=s.agent_set | ph.other_agent_set,
            phase=Completing(ph.other_leader, tuple(sorted(s.agent_set)), tuple(sorted(ph.other_agent_set))),
        )
    elif isinstance(ph, Completing):
        move = MergeCompleted(s.id, ph.other_leader, s.agent_set), s._replace(
            phase=Updating(ph.same_pending, ph.other_pending)
        )
    elif isinstance(ph, Updating) and ph.same_group_pending:
        same = ph.same_group_pending
        move = UpdateIdentifiedSameGroup(s.id, same[0], s.agent_set), _after_update(
            s, same[1:], ph.other_group_pending, params
        )
    elif isinstance(ph, Updating) and ph.other_group_pending:
        other = ph.other_group_pending
        move = UpdateIdentified(s.id, other[0], s.agent_set), _after_update(s, (), other[1:], params)
    elif isinstance(ph, Refusing):
        move = RemoveReasoningAbout(ph.requesting_agent, ph.other_agent), _continue_queue(
            s, ph.requesting_agent, ph.queue
        )
    elif isinstance(ph, DonePhase):
        move = Done(s.id), s._replace(phase=Terminating())
    elif isinstance(ph, Terminating):
        move = Terminate(s.id), s._replace(phase=Terminated())
    moves = [] if move is None else [move]
    moves += [
        (MergeCancelled(rq, s.id), s._replace(pending_cancels=s.pending_cancels - {rq}))
        for rq in sorted(s.pending_cancels)
    ]
    return moves


def leader_accept(s: LeaderProcState, e: EventLabel) -> Optional[LeaderProcState]:
    """Successor of leader `s` under an event another process initiates, or
    None when refused.  A label naming `s` as its initiator is refused, a
    self-addressed one such as confirm_merge.A1.A1 included."""
    ph = s.phase
    if isinstance(e, RequestMerge) and e.leader == s.id:
        if (
            isinstance(ph, AwaitRequest)
            and s.active
            and e.agent in s.agent_set
            and e.merge_set
            and not (e.merge_set & s.agent_set)
        ):
            return s._replace(phase=StartMerge(e.agent, tuple(sorted(e.merge_set))))
    elif isinstance(e, ReplyLeader) and e.req_leader == s.id:
        if isinstance(ph, AwaitReplyLeader) and ph.current == e.target_agent:
            other = e.its_leader
            if other == s.id:
                # Target already absorbed into this map; drop it silently.
                return _continue_queue(s, ph.requesting_agent, ph.queue)
            if priority(s.id, other) != s.id:
                # REQ1: without priority the merge attempt ends here.
                return s._replace(phase=Refusing(ph.requesting_agent, e.target_agent, ph.queue))
            return s._replace(phase=Confirming(ph.requesting_agent, e.target_agent, other, ph.queue))
    elif isinstance(e, ConfirmMerge) and e.other_leader == s.id != e.req_leader:
        # An idle active leader will confirm; a busy or demoted leader owes a cancellation (REQ2).
        if isinstance(ph, AwaitRequest) and s.active:
            return s._replace(phase=Considering(e.req_leader))
        if e.req_leader not in s.pending_cancels:
            return s._replace(pending_cancels=s.pending_cancels | {e.req_leader})
    elif isinstance(e, MergeCancelled) and e.req_leader == s.id != e.other_leader:
        if isinstance(ph, AwaitVerdict) and ph.other_leader == e.other_leader:
            return s._replace(phase=Refusing(ph.requesting_agent, ph.other_agent, ph.queue))
    elif isinstance(e, MergeConfirmed) and e.req_leader == s.id != e.other_leader:
        if (
            isinstance(ph, AwaitVerdict)
            and ph.other_leader == e.other_leader
            and e.other_agent_set
            and not (e.other_agent_set & s.agent_set)
        ):
            return s._replace(phase=Merging(ph.other_leader, e.other_agent_set))
    elif isinstance(e, MergeMaps) and e.other_leader == s.id != e.req_leader:
        if isinstance(ph, BeingMerged) and ph.req_leader == e.req_leader:
            return s._replace(phase=AwaitCompletion(e.req_leader))
    elif isinstance(e, MergeCompleted) and e.other_leader == s.id != e.req_leader:
        # Losing its position as a map leader.
        if isinstance(ph, AwaitCompletion) and ph.req_leader == e.req_leader:
            return s._replace(active=False, agent_set=frozenset(), phase=AWAIT_REQUEST)
    return None


def leader_step(s: LeaderProcState, e: EventLabel, params) -> Optional[LeaderProcState]:
    """Successor of one leader process under `e`, or None when refused."""
    for move, nxt in leader_moves(s, params):
        if move == e:
            return nxt
    return leader_accept(s, e)


def is_quiescent(s) -> bool:
    """A leader with nothing in flight, or an agent with no outstanding request."""
    return isinstance(s.phase, QUIESCENT_PHASES) if isinstance(s, LeaderProcState) else not s.has_outstanding_request
