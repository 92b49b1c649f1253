"""Global configurations and the rendezvous transition relation: every agent
and leader process composed in parallel, stepping jointly on shared events."""

from __future__ import annotations

from functools import cache
from itertools import combinations
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from .events import (
    BeginMerge,
    ConfirmMerge,
    Done,
    EventLabel,
    MergeCancelled,
    MergeCompleted,
    MergeConfirmed,
    MergeMaps,
    ProcessRef,
    RemoveReasoningAbout,
    ReplyLeader,
    RequestLeader,
    RequestMerge,
    Terminate,
    UpdateIdentified,
    UpdateIdentifiedSameGroup,
    participants,
    sort_key,
)
from .ids import AgentId, universe
from .processes import (
    AgentProcState,
    AwaitReplyLeader,
    Completing,
    Confirming,
    Considering,
    DonePhase,
    LeaderProcState,
    Merging,
    Refusing,
    StartMerge,
    Terminated,
    Terminating,
    Updating,
    agent_step,
    initial_agent,
    initial_leader,
    leader_is_quiescent,
    leader_step,
)

MIN_AGENTS = 2
MAX_AGENTS = 8


class ConfigurationError(ValueError):
    """Raised for out-of-bounds model or exploration parameters."""


class RefusedEventError(ValueError):
    """Raised when apply_event is given an event some participant refuses."""

    def __init__(self, event: EventLabel, blocking: Optional[ProcessRef]):
        self.event = event
        self.blocking = blocking
        who = str(blocking) if blocking is not None else "no process owns it"
        super().__init__(f"event not enabled ({who})")


class ModelParams(NamedTuple):
    """Static model configuration; priority_guard/active_guard are the REQ1
    and REQ2 mutation hooks used by the regression suite."""

    n: int
    harness: bool = True
    merge_set_max: int = 1
    priority_guard: bool = True
    active_guard: bool = True


class Configuration(NamedTuple):
    """Immutable global state: all process states plus the model parameters.

    Structural equality and hashing make configurations directly usable as
    visited-set keys during exploration.
    """

    agents: tuple
    leaders: tuple
    params: ModelParams

    @property
    def universe(self) -> tuple[AgentId, ...]:
        return universe(self.params.n)

    def agent(self, a: AgentId) -> AgentProcState:
        return self.agents[a.index - 1]

    def leader(self, a: AgentId) -> LeaderProcState:
        return self.leaders[a.index - 1]


def initial_config(
    n: int,
    *,
    harness: bool = True,
    merge_set_max: int = 1,
    priority_guard: bool = True,
    active_guard: bool = True,
) -> Configuration:
    """n singleton groups: every agent leads its own map."""
    if not MIN_AGENTS <= n <= MAX_AGENTS:
        raise ConfigurationError(f"agent count must be in [{MIN_AGENTS}, {MAX_AGENTS}], got {n}")
    if merge_set_max < 1:
        raise ConfigurationError("merge_set_max must be >= 1")
    params = ModelParams(n, harness, merge_set_max, priority_guard, active_guard)
    ids = universe(n)
    return Configuration(
        agents=tuple(initial_agent(a) for a in ids),
        leaders=tuple(initial_leader(a) for a in ids),
        params=params,
    )


def _refusing_leader(c: Configuration, e: RemoveReasoningAbout) -> Optional[LeaderProcState]:
    for l in c.leaders:
        ph = l.phase
        if isinstance(ph, Refusing) and ph.requesting_agent == e.req_agent and ph.other_agent == e.other_agent:
            return l
    return None


def joint_participants(c: Configuration, e: EventLabel) -> frozenset[ProcessRef]:
    """participants(e), plus the configuration-resolved co-participant for
    remove_reasoning_about: the leader currently refusing that request."""
    refs = participants(e)
    if isinstance(e, RemoveReasoningAbout):
        l = _refusing_leader(c, e)
        if l is not None:
            refs = refs | {ProcessRef("leader", l.id)}
    return refs


@cache
def _full_set(n: int) -> frozenset:
    """The whole agent universe A1..An as a set."""
    return frozenset(universe(n))


def _propose(c: Configuration) -> Iterator[EventLabel]:
    """Candidate labels, generated from process states; a candidate is
    enabled only if every participant's step is defined."""
    full = _full_set(c.params.n)
    for l in c.leaders:
        ph = l.phase
        if isinstance(ph, StartMerge):
            yield BeginMerge(l.id)
        elif isinstance(ph, AwaitReplyLeader):
            if ph.current is None:
                if ph.queue:
                    yield RequestLeader(l.id, ph.queue[0])
            else:
                yield ReplyLeader(ph.current, l.id, c.agent(ph.current).believed_leader)
        elif isinstance(ph, Confirming):
            yield ConfirmMerge(l.id, ph.other_leader)
        elif isinstance(ph, Considering):
            yield MergeConfirmed(ph.req_leader, l.id, l.agent_set)
        elif isinstance(ph, Merging):
            yield MergeMaps(l.id, ph.other_leader)
        elif isinstance(ph, Completing):
            yield MergeCompleted(l.id, ph.other_leader, ph.union_set)
        elif isinstance(ph, Updating):
            if ph.same_group_pending:
                yield UpdateIdentifiedSameGroup(l.id, ph.same_group_pending[0], ph.new_set)
            elif ph.other_group_pending:
                yield UpdateIdentified(l.id, ph.other_group_pending[0], ph.new_set)
        elif isinstance(ph, Refusing):
            yield RemoveReasoningAbout(ph.requesting_agent, ph.other_agent)
        elif isinstance(ph, DonePhase):
            yield Done(l.id)
        elif isinstance(ph, Terminating):
            yield Terminate(l.id)
        for rq in sorted(l.pending_cancels):
            yield MergeCancelled(rq, l.id)
    # Spontaneous merge requests stand in for the identification strategy:
    # any agent may ask its leader to merge with agents it does not know.
    for a in c.agents:
        if a.has_outstanding_request:
            continue
        eligible = sorted(full - a.known_group)
        k = min(c.params.merge_set_max, len(eligible))
        for size in range(1, k + 1):
            for combo in combinations(eligible, size):
                yield RequestMerge(a.id, a.believed_leader, frozenset(combo))


# Step tables, filled lazily and shared by every caller in the process,
# explore's worker threads included.  A local step depends only on the local
# state and the label (plus the model parameters for leaders), and each key
# holds all of them, so a shared entry never changes a result; two threads
# missing on one step both compute the same successor.  Successor states are
# interned so that equal local states are one shared object.  The tables
# grow with the model's distinct local steps: about 4,100 at n=4.
_AGENT_STEPS: dict = {}  # (agent state, event) -> agent state | None
_LEADER_STEPS: dict = {}  # (leader state, event, params) -> leader state | None
_LOCAL_STATES: dict = {}  # local state -> its shared instance
_EVENTS: dict = {}  # event -> (sort key, agent slots, leader slots)
_MISS = object()


def _event_entry(e: EventLabel) -> tuple:
    refs = participants(e)
    entry = (
        sort_key(e),
        tuple(r.id.index - 1 for r in sorted(refs) if r.kind == "agent"),
        tuple(r.id.index - 1 for r in sorted(refs) if r.kind == "leader"),
    )
    _EVENTS[e] = entry
    return entry


def _intern(s):
    return None if s is None else _LOCAL_STATES.setdefault(s, s)


def successors(c: Configuration) -> list[tuple[EventLabel, Configuration]]:
    """Every enabled event with its successor configuration, in canonical
    order.  Each participant of each candidate is stepped once."""
    params = c.params
    full = _full_set(params.n)
    found: dict = {}  # event -> (sort key, event, successor), once per label
    for e in _propose(c):
        entry = _EVENTS.get(e) or _event_entry(e)
        leader_slots = entry[2]
        if isinstance(e, RemoveReasoningAbout):
            l = _refusing_leader(c, e)
            if l is None:
                continue
            leader_slots = (l.id.index - 1,)
        agents = c.agents
        for i in entry[1]:
            key = (agents[i], e)
            nxt = _AGENT_STEPS.get(key, _MISS)
            if nxt is _MISS:
                nxt = _AGENT_STEPS[key] = _intern(agent_step(agents[i], e))
            if nxt is None:
                break
            agents = agents[:i] + (nxt,) + agents[i + 1 :]
        else:
            leaders = c.leaders
            for i in leader_slots:
                key = (leaders[i], e, params)
                nxt = _LEADER_STEPS.get(key, _MISS)
                if nxt is _MISS:
                    nxt = _LEADER_STEPS[key] = _intern(leader_step(leaders[i], e, full, params))
                if nxt is None:
                    break
                leaders = leaders[:i] + (nxt,) + leaders[i + 1 :]
            else:
                found[e] = (entry[0], e, Configuration(agents, leaders, params))
    return [(e, c2) for _, e, c2 in sorted(found.values(), key=itemgetter(0))]


def enabled_events(c: Configuration) -> list[EventLabel]:
    """All globally enabled events, in canonical order."""
    return [e for e, _ in successors(c)]


def apply_event(c: Configuration, e: EventLabel) -> Configuration:
    """Advance every participant simultaneously; refuse with the blocking
    process named otherwise.

    This is the uncached single-event reference path; `successors` computes
    the same steps through the step tables.
    """
    full = _full_set(c.params.n)
    refs = joint_participants(c, e)
    if isinstance(e, RemoveReasoningAbout) and len(refs) < 2:
        raise RefusedEventError(e, None)
    agents = list(c.agents)
    leaders = list(c.leaders)
    for r in sorted(refs):
        i = r.id.index - 1
        if r.kind == "agent":
            nxt = agents[i] = agent_step(c.agents[i], e)
        else:
            nxt = leaders[i] = leader_step(c.leaders[i], e, full, c.params)
        if nxt is None:
            raise RefusedEventError(e, r)
    return Configuration(tuple(agents), tuple(leaders), c.params)


def is_enabled(c: Configuration, e: EventLabel) -> bool:
    """Whether apply_event accepts `e` in `c`."""
    try:
        apply_event(c, e)
    except RefusedEventError:
        return False
    return True


def is_quiescent(c: Configuration) -> bool:
    """No merge in flight and no outstanding request."""
    return all(leader_is_quiescent(l) for l in c.leaders) and not any(
        a.has_outstanding_request for a in c.agents
    )


def quiescent_partition_violation(c: Configuration) -> Optional[str]:
    """In quiescent configurations the active leaders' agent sets must
    partition the universe and every agent's believed leader must be an
    active leader holding it.  Returns a description of the violation, or
    None."""
    if not is_quiescent(c):
        return None
    full = _full_set(c.params.n)
    seen: set[AgentId] = set()
    for l in c.leaders:
        if not l.active:
            continue
        if l.agent_set & seen:
            return f"active leaders' agent sets overlap at {sorted(l.agent_set & seen)}"
        seen |= l.agent_set
    if seen != full:
        return f"active agent sets cover {sorted(seen)}, not the universe"
    for a in c.agents:
        lead = c.leader(a.believed_leader)
        if not lead.active:
            return f"{a.id} believes demoted leader {a.believed_leader}"
        if a.id not in lead.agent_set:
            return f"{a.id} not in believed leader {a.believed_leader}'s agent set"
    return None


def is_terminal(c: Configuration) -> bool:
    """All maps merged and the harness run to completion.

    With the harness disabled there is no done/terminate pair; the fully
    merged quiescent configuration counts as terminal instead.
    """
    full = _full_set(c.params.n)
    winner = None
    for l in c.leaders:
        if l.active and l.agent_set == full:
            winner = l
            break
    if winner is None:
        return False
    if any(l.active for l in c.leaders if l.id != winner.id):
        return False
    if c.params.harness:
        return isinstance(winner.phase, Terminated)
    return is_quiescent(c)
