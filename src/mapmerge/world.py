"""Global configurations and the rendezvous transition relation: every agent
and leader process composed in parallel, stepping jointly on shared events."""

from __future__ import annotations

import threading
from functools import cache
from operator import attrgetter, itemgetter
from typing import NamedTuple, Optional

from .events import EventLabel, ProcessRef, RemoveReasoningAbout, participants, sort_key
from .ids import AgentId, universe
from .processes import (
    LeaderProcState,
    Refusing,
    Terminated,
    agent_accept,
    agent_moves,
    agent_step,
    full_set,
    initial_agent,
    initial_leader,
    is_quiescent as quiescent_local,
    leader_accept,
    leader_moves,
    leader_step,
)

MIN_AGENTS = 2
MAX_AGENTS = 8
_pair = attrgetter("active", "agent_set")  # the part of a leader that active-monotone reads


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
    """Static model configuration, as the CLI sets it: the agent count, the
    done/terminate harness, and the largest merge set an agent requests."""

    n: int
    harness: bool = True
    merge_set_max: int = 1


class Configuration(NamedTuple):
    """Immutable global state: all process states plus the model parameters.

    Structural equality and hashing make configurations directly usable as
    visited-set keys during exploration.
    """

    agents: tuple
    leaders: tuple
    params: ModelParams

    def leader(self, a: AgentId) -> LeaderProcState:
        return self.leaders[a.index - 1]


def initial_config(n: int, *, harness: bool = True, merge_set_max: int = 1) -> Configuration:
    """n singleton groups: every agent leads its own map."""
    if not MIN_AGENTS <= n <= MAX_AGENTS:
        raise ConfigurationError(f"agent count must be in [{MIN_AGENTS}, {MAX_AGENTS}], got {n}")
    if merge_set_max < 1:
        raise ConfigurationError("merge_set_max must be >= 1")
    ids = universe(n)
    return Configuration(
        agents=tuple(initial_agent(a) for a in ids),
        leaders=tuple(initial_leader(a) for a in ids),
        params=ModelParams(n, harness, merge_set_max),
    )


def _refusing_leader(c: Configuration, e: RemoveReasoningAbout) -> Optional[LeaderProcState]:
    for l in c.leaders:
        ph = l.phase
        if isinstance(ph, Refusing) and ph.requesting_agent == e.req_agent and ph.other_agent == e.other_agent:
            return l
    return None


class Model:
    """One model compiled to integer tables, filled lazily and shared by
    every caller in the process.  A code is a flat tuple of local-state ints:
    agents at slots 0..n-1, leaders at n..2n-1.  Each local state and each
    label is one shared object with a small int.  Interning a local state
    interns its moves; the passive participants of an event accept it through
    per-local step tables.  A table miss takes the lock, so threads agree on
    every int; a hit takes none.  2,686 passive steps fill the n=4 tables.
    A label's shift flag is set as its entries fill, before any transition
    on it is returned."""

    def __init__(self, params: ModelParams):
        self.params, self.n = params, params.n
        self.locals: list = []  # int -> local state
        self.labels: list = []  # int -> the shared label object
        self._local_ids: dict = {}  # local state -> int
        self._label_ids: dict = {}  # label -> (event int, sort key, participant slots)
        self._moves: list = []  # local int -> ((event int, sort key, other participants' slots, next local int), ...)
        self._steps: list = []  # local int -> {event int: next local int, or -1 if refused}
        self.shifts = bytearray()  # event int -> 1 once an entry under it changes a leader's _pair
        self._lock = threading.Lock()

    def _label(self, e: EventLabel) -> tuple:
        entry = self._label_ids.get(e)
        if entry is None:
            slots = tuple(r.id.index - 1 + (self.n if r.kind == "leader" else 0) for r in sorted(participants(e)))
            entry = self._label_ids[e] = (len(self.labels), sort_key(e), slots)
            self.labels.append(e)
            self.shifts.append(0)
        return entry

    def _intern(self, s) -> int:
        """The int of local state `s`, with its moves; the caller holds the lock."""
        i = self._local_ids.get(s)
        if i is None:
            i = self._local_ids[s] = len(self.locals)
            self.locals.append(s)
            self._steps.append({})
            self._moves.append(())
            leader = isinstance(s, LeaderProcState)
            own = s.id.index - 1 + (self.n if leader else 0)
            moves = []
            for e, nxt in (leader_moves if leader else agent_moves)(s, self.params):
                ev, key, slots = self._label(e)
                self.shifts[ev] |= leader and _pair(s) != _pair(nxt)
                moves.append((ev, key, tuple(j for j in slots if j != own), self._intern(nxt)))
            self._moves[i] = tuple(moves)
        return i

    def _step(self, s: int, ev: int) -> int:
        with self._lock:
            steps = self._steps[s]
            if ev not in steps:
                local = self.locals[s]
                leader = isinstance(local, LeaderProcState)
                nxt = (leader_accept if leader else agent_accept)(local, self.labels[ev])
                steps[ev] = -1 if nxt is None else self._intern(nxt)
                self.shifts[ev] |= leader and nxt is not None and _pair(local) != _pair(nxt)
            return steps[ev]

    def encode(self, c: Configuration) -> tuple:
        with self._lock:
            return tuple(map(self._intern, c.agents + c.leaders))

    def decode(self, code: tuple) -> Configuration:
        local, n = self.locals.__getitem__, self.n
        return Configuration(tuple(map(local, code[:n])), tuple(map(local, code[n:])), self.params)

    def successors(self, code: tuple) -> list[tuple[int, tuple]]:
        """Every enabled event int with its successor code, in canonical order.
        The moves are walked in slot order; the first process to offer a label
        keeps it (only leaders offer remove_reasoning_about, so the lowest
        refusing leader wins, as in apply_event), and only the other
        participants step."""
        moves_of, steps_of = self._moves, self._steps
        found: dict = {}  # event int -> (sort key, event int, successor code)
        for slot, local in enumerate(code):
            for ev, key, others, nxt in moves_of[local]:
                if ev in found:
                    continue
                new = list(code)
                new[slot] = nxt
                for i in others:
                    y = steps_of[code[i]].get(ev)
                    if y is None:
                        y = self._step(code[i], ev)
                    if y < 0:
                        break
                    new[i] = y
                else:
                    found[ev] = (key, ev, tuple(new))
        return [(ev, new) for _, ev, new in sorted(found.values(), key=itemgetter(0))]


model = cache(Model)  # the one compiled model of each ModelParams in the process


def enabled_events(c: Configuration) -> list[EventLabel]:
    """All globally enabled events, in canonical order."""
    m = model(c.params)
    return [m.labels[ev] for ev, _ in m.successors(m.encode(c))]


def apply_event(c: Configuration, e: EventLabel) -> Configuration:
    """Advance every participant simultaneously; refuse with the blocking
    process named otherwise.

    This is the uncached single-event reference path; `Model.successors`
    computes the same steps through the step tables.
    """
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
            nxt = agents[i] = agent_step(c.agents[i], e, c.params)
        else:
            nxt = leaders[i] = leader_step(c.leaders[i], e, c.params)
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
    return all(map(quiescent_local, c.agents + c.leaders))


def quiescent_partition_violation(c: Configuration) -> Optional[str]:
    """In quiescent configurations the active leaders' agent sets must
    partition the universe and every agent's believed leader must be an
    active leader holding it.  Returns a description of the violation, or
    None."""
    if not is_quiescent(c):
        return None
    seen: set[AgentId] = set()
    for l in c.leaders:
        if not l.active:
            continue
        if l.agent_set & seen:
            return f"active leaders' agent sets overlap at {sorted(l.agent_set & seen)}"
        seen |= l.agent_set
    if seen != full_set(c.params.n):
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
    full = full_set(c.params.n)
    return any(l.agent_set == full for l in c.leaders)


def is_terminal(c: Configuration) -> bool:
    """All maps merged and the harness run to completion.

    With the harness disabled there is no done/terminate pair; the fully
    merged quiescent configuration counts as terminal instead.
    """
    full = full_set(c.params.n)
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
