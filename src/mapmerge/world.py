"""Global configurations and the rendezvous transition relation: every agent
and leader process composed in parallel, stepping jointly on shared events."""

from __future__ import annotations

import threading
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


class Model:
    """One model compiled to integer tables, filled lazily and shared by
    every caller in the process.  A code
    is a flat tuple of local-state ints: agents at slots 0..n-1, leaders at
    n..2n-1.  Each local state and each label is one shared object with a
    small int.  A table miss takes the lock, so threads agree on every int;
    a hit takes none.  About 4,100 steps fill the n=4 tables."""

    def __init__(self, params: ModelParams):
        self.params, self.n = params, params.n
        self.locals: list = []  # int -> local state
        self.labels: list = []  # int -> the shared label object
        self._local_ids: dict = {}  # local state -> int
        self._label_offers: dict = {}  # label -> (event int, sort key, slots)
        self._offers: list = []  # local int -> (own offers, slot of the agent it awaits a reply from)
        self._steps: list = []  # local int -> {event int: next local int, or -1 if refused}
        self._replies: dict = {}  # (leader int, agent int) -> reply_leader offer
        self._lock = threading.Lock()

    def _offer(self, e: EventLabel) -> tuple:
        offer = self._label_offers.get(e)
        if offer is None:
            slots = tuple(r.id.index - 1 + (self.n if r.kind == "leader" else 0) for r in sorted(participants(e)))
            offer = self._label_offers[e] = (len(self.labels), sort_key(e), slots)
            self.labels.append(e)
        return offer

    def _intern(self, s) -> int:
        """The int of local state `s`; the caller holds the lock."""
        i = self._local_ids.get(s)
        if i is None:
            leader = isinstance(s, LeaderProcState)
            self._offers.append(self._leader_offers(s) if leader else (self._agent_offers(s), None))
            self._steps.append({})
            self.locals.append(s)
            i = self._local_ids[s] = len(self.locals) - 1
        return i

    def _leader_offers(self, l: LeaderProcState) -> tuple:
        """The offers leader `l` initiates in its current state, and the slot
        of the agent whose reply_leader it awaits: that label carries the
        agent's belief."""
        ph = l.phase
        e = reply = None
        if isinstance(ph, StartMerge):
            e = BeginMerge(l.id)
        elif isinstance(ph, AwaitReplyLeader):
            if ph.current is not None:
                reply = ph.current.index - 1
            elif ph.queue:
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
        offers = [] if e is None else [self._offer(e)]
        if isinstance(ph, Refusing):
            # The label names no leader; like apply_event, successors keeps the first refusing one.
            offers[0] = offers[0][:2] + (offers[0][2] + (self.n + l.id.index - 1,),)
        offers += [self._offer(MergeCancelled(rq, l.id)) for rq in sorted(l.pending_cancels)]
        return tuple(offers), reply

    def _agent_offers(self, a: AgentProcState) -> tuple:
        """The offers agent `a` initiates.  Spontaneous merge requests stand in
        for the identification strategy: any agent may ask its leader to merge
        with agents it does not know."""
        eligible = () if a.has_outstanding_request else sorted(_full_set(self.n) - a.known_group)
        return tuple(
            self._offer(RequestMerge(a.id, a.believed_leader, frozenset(combo)))
            for size in range(1, min(self.params.merge_set_max, len(eligible)) + 1)
            for combo in combinations(eligible, size)
        )

    def _reply_offer(self, l: int, a: int) -> tuple:
        with self._lock:
            leader, agent = self.locals[l], self.locals[a]
            offer = self._offer(ReplyLeader(agent.id, leader.id, agent.believed_leader))
            return self._replies.setdefault((l, a), offer)

    def _step(self, s: int, ev: int) -> int:
        with self._lock:
            steps = self._steps[s]
            if ev not in steps:
                local, e = self.locals[s], self.labels[ev]
                leader = isinstance(local, LeaderProcState)
                nxt = leader_step(local, e, _full_set(self.n), self.params) if leader else agent_step(local, e)
                steps[ev] = -1 if nxt is None else self._intern(nxt)
            return steps[ev]

    def encode(self, c: Configuration) -> tuple:
        with self._lock:
            return tuple(map(self._intern, c.agents + c.leaders))

    def decode(self, code: tuple) -> Configuration:
        local, n = self.locals.__getitem__, self.n
        return Configuration(tuple(map(local, code[:n])), tuple(map(local, code[n:])), self.params)

    def successors(self, code: tuple) -> list[tuple[int, tuple]]:
        """Every enabled event int with its successor code, in canonical order; one step per participant."""
        n, offers_of, steps_of, replies = self.n, self._offers, self._steps, self._replies
        offers: list = []
        for l in code[n:]:
            own, t = offers_of[l]
            offers += own
            if t is not None:
                offers.append(replies.get((l, code[t])) or self._reply_offer(l, code[t]))
        for a in code[:n]:
            offers += offers_of[a][0]
        # Leaders refusing the same request offer one remove_reasoning_about
        # label; the first of them takes it, as in apply_event.
        found: dict = {}  # event int -> (sort key, event int, successor), first per label
        for ev, key, slots in offers:
            nxt_code = code
            for i in slots:
                nxt = steps_of[code[i]].get(ev)
                if nxt is None:
                    nxt = self._step(code[i], ev)
                if nxt < 0:
                    break
                nxt_code = nxt_code[:i] + (nxt,) + nxt_code[i + 1 :]
            else:
                found.setdefault(ev, (key, ev, nxt_code))
        return [(ev, nxt_code) for _, ev, nxt_code in sorted(found.values(), key=itemgetter(0))]


model = cache(Model)  # the one compiled model of each ModelParams in the process


def successors(c: Configuration) -> list[tuple[EventLabel, Configuration]]:
    """Every enabled event with its successor configuration, in canonical order."""
    m = model(c.params)
    return [(m.labels[ev], m.decode(code)) for ev, code in m.successors(m.encode(c))]


def enabled_events(c: Configuration) -> list[EventLabel]:
    """All globally enabled events, in canonical order."""
    m = model(c.params)
    return [m.labels[ev] for ev, _ in m.successors(m.encode(c))]


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


def all_maps_merged(c: Configuration) -> bool:
    """The protocol's goal: some leader's agent set is the whole team."""
    full = _full_set(c.params.n)
    return any(l.agent_set == full for l in c.leaders)


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
