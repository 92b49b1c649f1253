"""Global configurations and the rendezvous transition relation: every agent
and leader process composed in parallel, stepping jointly on shared events."""

from __future__ import annotations

from functools import cache
from itertools import combinations
from operator import itemgetter
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


@cache
def _full_set(n: int) -> frozenset:
    """The whole agent universe A1..An as a set."""
    return frozenset(universe(n))


# Offer and step tables, filled lazily and shared by every caller in the
# process, explore's worker threads included.  Each key holds everything its
# entry depends on, so a shared entry never changes a result; two threads
# missing on one key both compute the same entry.  Local states are interned,
# and each label is one shared object, the one the state graph stores.  The
# step tables grow with the model's distinct local steps: about 4,100 at n=4.
_AGENT_OFFERS: dict = {}  # (agent state, params) -> offers the agent initiates
_LEADER_OFFERS: dict = {}  # leader state -> offers the leader initiates
_AGENT_STEPS: dict = {}  # (agent state, event) -> agent state | None
_LEADER_STEPS: dict = {}  # (leader state, event, params) -> leader state | None
_LOCAL_STATES: dict = {}  # local state -> its shared instance
_EVENTS: dict = {}  # event -> its offer: (shared event, sort key, agent slots, leader slots)
_MISS = object()


def _offer(e: EventLabel) -> tuple:
    offer = _EVENTS.get(e)
    if offer is None:
        refs = sorted(participants(e))
        agent_slots = tuple(r.id.index - 1 for r in refs if r.kind == "agent")
        leader_slots = tuple(r.id.index - 1 for r in refs if r.kind == "leader")
        offer = _EVENTS.setdefault(e, (e, sort_key(e), agent_slots, leader_slots))
    return offer


def _leader_offers(l: LeaderProcState) -> tuple:
    """The offers leader `l` initiates in its current state, except
    reply_leader, whose label carries the target agent's belief."""
    ph = l.phase
    e = None
    if isinstance(ph, StartMerge):
        e = BeginMerge(l.id)
    elif isinstance(ph, AwaitReplyLeader):
        if ph.current is None and ph.queue:
            e = RequestLeader(l.id, ph.queue[0])
    elif isinstance(ph, Confirming):
        e = ConfirmMerge(l.id, ph.other_leader)
    elif isinstance(ph, Considering):
        e = MergeConfirmed(ph.req_leader, l.id, l.agent_set)
    elif isinstance(ph, Merging):
        e = MergeMaps(l.id, ph.other_leader)
    elif isinstance(ph, Completing):
        e = MergeCompleted(l.id, ph.other_leader, ph.union_set)
    elif isinstance(ph, Updating):
        if ph.same_group_pending:
            e = UpdateIdentifiedSameGroup(l.id, ph.same_group_pending[0], ph.new_set)
        elif ph.other_group_pending:
            e = UpdateIdentified(l.id, ph.other_group_pending[0], ph.new_set)
    elif isinstance(ph, Refusing):
        e = RemoveReasoningAbout(ph.requesting_agent, ph.other_agent)
    elif isinstance(ph, DonePhase):
        e = Done(l.id)
    elif isinstance(ph, Terminating):
        e = Terminate(l.id)
    offers = [] if e is None else [_offer(e)]
    if isinstance(ph, Refusing):
        # The label does not name its leader; apply_event resolves it to the
        # first refusing leader, and successors keeps the first offer.
        offers[0] = offers[0][:3] + ((l.id.index - 1,),)
    offers += [_offer(MergeCancelled(rq, l.id)) for rq in sorted(l.pending_cancels)]
    return _LEADER_OFFERS.setdefault(l, tuple(offers))


def _agent_offers(a: AgentProcState, params: ModelParams) -> tuple:
    """The offers agent `a` initiates.  Spontaneous merge requests stand in
    for the identification strategy: any agent may ask its leader to merge
    with agents it does not know."""
    offers = ()
    if not a.has_outstanding_request:
        eligible = sorted(_full_set(params.n) - a.known_group)
        offers = tuple(
            _offer(RequestMerge(a.id, a.believed_leader, frozenset(combo)))
            for size in range(1, min(params.merge_set_max, len(eligible)) + 1)
            for combo in combinations(eligible, size)
        )
    return _AGENT_OFFERS.setdefault((a, params), offers)


def _intern(s):
    return None if s is None else _LOCAL_STATES.setdefault(s, s)


def successors(c: Configuration) -> list[tuple[EventLabel, Configuration]]:
    """Every enabled event with its successor configuration, in canonical
    order.  Each participant of each offer is stepped once."""
    params = c.params
    full = _full_set(params.n)
    offers: list = []
    for l in c.leaders:
        own = _LEADER_OFFERS.get(l, _MISS)
        offers += _leader_offers(l) if own is _MISS else own
        ph = l.phase
        if isinstance(ph, AwaitReplyLeader) and ph.current is not None:
            offers.append(_offer(ReplyLeader(ph.current, l.id, c.agent(ph.current).believed_leader)))
    for a in c.agents:
        own = _AGENT_OFFERS.get((a, params), _MISS)
        offers += _agent_offers(a, params) if own is _MISS else own
    # Leaders refusing the same request offer one remove_reasoning_about
    # label; the first of them takes it, as in apply_event.
    found: dict = {}  # event -> (sort key, event, successor), first per label
    for e, key, agent_slots, leader_slots in offers:
        agents = c.agents
        for i in agent_slots:
            k = (agents[i], e)
            nxt = _AGENT_STEPS.get(k, _MISS)
            if nxt is _MISS:
                nxt = _AGENT_STEPS[k] = _intern(agent_step(agents[i], e))
            if nxt is None:
                break
            agents = agents[:i] + (nxt,) + agents[i + 1 :]
        else:
            leaders = c.leaders
            for i in leader_slots:
                k = (leaders[i], e, params)
                nxt = _LEADER_STEPS.get(k, _MISS)
                if nxt is _MISS:
                    nxt = _LEADER_STEPS[k] = _intern(leader_step(leaders[i], e, full, params))
                if nxt is None:
                    break
                leaders = leaders[:i] + (nxt,) + leaders[i + 1 :]
            else:
                found.setdefault(e, (key, e, Configuration(agents, leaders, params)))
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
    refs = participants(e)
    if isinstance(e, RemoveReasoningAbout):
        # The co-participant is the first leader refusing that request.
        l = _refusing_leader(c, e)
        if l is None:
            raise RefusedEventError(e, None)
        refs = refs | {ProcessRef("leader", l.id)}
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
