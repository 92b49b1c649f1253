"""Global configurations and the rendezvous transition relation: every agent
and leader process composed in parallel, stepping jointly on shared events."""

from __future__ import annotations

import struct
from operator import attrgetter
from typing import NamedTuple, Optional

from .events import EventLabel, MergeCancelled, ProcessRef, RemoveReasoningAbout, label, participants, sort_key
from .ids import AgentId, universe
from .processes import (
    AwaitCompletion,
    BeingMerged,
    Considering,
    LeaderProcState,
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
LOCALS_MAX = 1 << 16  # a key holds each local int in 16 bits
# A key's count fields, above its slots: its locals with a message, with a duty (see local_faults), not quiescent.
# Each holds up to 2 * MAX_AGENTS = 16, so no count carries into the next.
MESSAGE, DUTY, BUSY = 0x1F, 0x1F << 5, 0x1F << 10
_pair = attrgetter("active", "agent_set")  # the part of a leader that active-monotone reads


class ConfigurationError(ValueError):
    """Raised for out-of-bounds model or exploration parameters."""


class RefusedEventError(ValueError):
    """Raised when apply_event is given an event some participant refuses."""

    def __init__(self, event: EventLabel, blocking: Optional[ProcessRef]):
        who = str(blocking) if blocking is not None else "no process owns it"
        super().__init__(f"{label(event)} not enabled ({who})")


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


def local_faults(s) -> tuple:
    """A local state's own invariant message or None, and the duties it owes
    as (the label that meets it, or None if none does, message) pairs."""
    msg, duties = None, []
    if isinstance(s, LeaderProcState):
        if s.active and s.id not in s.agent_set:
            msg = f"active leader {s.id} missing from its own agent set"
        for rq in s.pending_cancels:
            duties.append((MergeCancelled(rq, s.id), f"{s.id} owes merge_cancelled to {rq} but cannot reply"))
        if not s.active and isinstance(s.phase, (Considering, BeingMerged, AwaitCompletion)):
            duties.append((None, f"demoted leader {s.id} is progressing a merge confirmation"))
    elif s.id not in s.known_group:
        msg = f"{s.id} missing from its own known group"
    elif s.believed_leader not in s.known_group:
        msg = f"{s.id}'s believed leader {s.believed_leader} outside its known group"
    return msg, duties


class Model:
    """One model compiled to integer tables, filled lazily by the one search that
    owns it.  Each local state and each label is one shared object with a small
    int.  A state is one int, its key: the sum of its locals' terms.  The term
    of local int x at slot s (agents at 0..n-1, leaders at n..2n-1) is x << 16*s
    plus, in the count word above bit 32n, one in each of the MESSAGE, DUTY and
    BUSY fields (5 bits each) whose fact x has (see `local_faults`); `code`
    unpacks the slots, and every key is below 1 << `key_bits`, so bits above it
    are free.  A move or step table entry holds the delta that its step adds to
    a key, the next local's term minus its own, so a successor's key is a sum.
    Interning a local state interns its moves, each with at most one
    partner: the passive participant, which accepts through per-local step
    tables, each entry filled on its first miss (2,686 passive steps fill
    the n=4 tables).  A label's shift flag is set as its entries fill,
    before any transition on it is returned.  A model serves one thread."""

    def __init__(self, params: ModelParams):
        self.params, self.n = params, params.n
        self.locals: list = []  # int -> local state
        self.labels: list = []  # int -> the shared label object
        self._local_ids: dict = {}  # local state -> int
        self._label_ids: dict = {}  # label -> (event int, sort key int, participant slots)
        self.faults: list = []  # local int -> local_faults, with each duty's label as its int (-1: none)
        self._terms: list = []  # local int -> its term in a key
        self._moves: list = []  # local int -> ((event int, sort key int, partner slot or -1, delta), ...)
        self._steps: list = []  # local int -> {event int: delta, or None if refused}
        self.shifts = bytearray()  # event int -> 1 once an entry under it changes a leader's _pair
        self.count_shift = 32 * self.n  # key >> count_shift is a key's count word
        self.key_bits = self.count_shift + BUSY.bit_length()  # the slots and the count word
        self.key_bytes = (self.key_bits + 7) // 8  # a key's little-endian length, its row's 4n bytes first
        self.row_struct = struct.Struct(f"<{2 * self.n}H")  # a row: the slots, from a key's little-endian bytes

    def _label(self, e: EventLabel) -> tuple:
        entry = self._label_ids.get(e)
        if entry is None:
            slots = tuple(r.id.index - 1 + (self.n if r.kind == "leader" else 0) for r in sorted(participants(e)))
            entry = self._label_ids[e] = (len(self.labels), sort_key(e), slots)
            self.labels.append(e)
            self.shifts.append(0)
        return entry

    def _intern(self, s) -> int:
        """The int of local state `s`, with its moves."""
        i = self._local_ids.get(s)
        if i is None:
            if len(self.locals) >= LOCALS_MAX:
                raise ConfigurationError(f"the model has more than {LOCALS_MAX} local states")
            i = self._local_ids[s] = len(self.locals)
            self.locals.append(s)
            self._steps.append({})
            self._moves.append(())
            leader = isinstance(s, LeaderProcState)
            own = s.id.index - 1 + (self.n if leader else 0)
            msg, duties = local_faults(s)
            self.faults.append((msg, tuple((-1 if e is None else self._label(e)[0], text) for e, text in duties)))
            counts = (msg is not None) | bool(duties) << 5 | (not quiescent_local(s)) << 10  # in MESSAGE, DUTY, BUSY
            term = i << 16 * own | counts << self.count_shift
            self._terms.append(term)
            moves = []
            for e, nxt in (leader_moves if leader else agent_moves)(s, self.params):
                ev, key, slots = self._label(e)
                self.shifts[ev] |= leader and _pair(s) != _pair(nxt)
                (partner,) = [j for j in slots if j != own] or [-1]  # participants names at most two processes
                moves.append((ev, key, partner, self._terms[self._intern(nxt)] - term))
            self._moves[i] = tuple(moves)
        return i

    def _step(self, s: int, ev: int) -> Optional[int]:
        """Fill and return the step table entry of local `s` under event `ev`."""
        local = self.locals[s]
        leader = isinstance(local, LeaderProcState)
        nxt = (leader_accept if leader else agent_accept)(local, self.labels[ev])
        d = self._steps[s][ev] = None if nxt is None else self._terms[self._intern(nxt)] - self._terms[s]
        self.shifts[ev] |= leader and nxt is not None and _pair(local) != _pair(nxt)
        return d

    def encode(self, c: Configuration) -> int:
        """The key of `c`."""
        return sum(self._terms[self._intern(s)] for s in c.agents + c.leaders)

    def code(self, key: int) -> tuple:
        """The local ints at the slots of `key`."""
        return self.row_struct.unpack_from(key.to_bytes(self.key_bytes, "little"))

    def decode(self, code: tuple) -> Configuration:
        local, n = self.locals.__getitem__, self.n
        return Configuration(tuple(map(local, code[:n])), tuple(map(local, code[n:])), self.params)

    def successors(self, key: int, code: tuple) -> list[tuple[int, int]]:
        """Every enabled event int with its successor key, in canonical order:
        `key` plus the delta of each participant's step; `code` is
        `code(key)`.  Only the partner of the process that offers a label
        steps, if it has one.  The moves are walked from the last slot to the
        first and each accepted offer overwrites the label's entry, so the
        lowest slot to offer a label keeps it (only leaders offer
        remove_reasoning_about, so the lowest refusing leader wins, as in
        apply_event).  No explored graph has a state where two slots offer
        one label (none at n=3 and n=4, merge-set max 1 and 2, harness on
        and off, nor at n=5), so the rule is pinned by
        test_first_refusing_leader_keeps_remove_reasoning_about.  The entries are keyed by the labels' sort key ints,
        and sorting those gives the canonical order."""
        moves_of, steps_of = self._moves, self._steps
        found: dict = {}  # sort key int -> (event int, successor key)
        for local in reversed(code):
            for ev, sort, partner, delta in moves_of[local]:
                if partner >= 0:
                    steps = steps_of[code[partner]]
                    d = steps[ev] if ev in steps else self._step(code[partner], ev)
                    if d is None:
                        continue
                    delta += d
                found[sort] = (ev, key + delta)
        return list(map(found.__getitem__, sorted(found)))


def enabled_events(c: Configuration) -> list[EventLabel]:
    """All globally enabled events, in canonical order: every label some
    process offers among its moves that apply_event accepts."""
    offered = {e for s in c.agents for e, _ in agent_moves(s, c.params)}
    offered.update(e for s in c.leaders for e, _ in leader_moves(s, c.params))
    return sorted((e for e in offered if is_enabled(c, e)), key=sort_key)


def apply_event(c: Configuration, e: EventLabel) -> Configuration:
    """Advance every participant simultaneously; refuse with the blocking
    process named otherwise.

    This is the single-event reference path, which reads no `Model`;
    `Model.successors` computes the same steps through the step tables.
    """
    refs = participants(e)
    if isinstance(e, RemoveReasoningAbout):
        # The co-participant is the first leader whose moves offer it.
        l = next((l for l in c.leaders if any(m == e for m, _ in leader_moves(l, c.params))), None)
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
    """One active leader, holding the whole team, and it has terminated; with
    the harness disabled there is no done/terminate pair, so every process
    is quiescent instead."""
    active = [l for l in c.leaders if l.active]
    if len(active) != 1 or active[0].agent_set != full_set(c.params.n):
        return False
    return isinstance(active[0].phase, Terminated) if c.params.harness else is_quiescent(c)
