"""Explicit-state exploration: breadth-first reachability with invariant
checking, trace-membership queries under hiding, deadlock and hidden-
divergence detection, and AG-EF inevitability."""

from __future__ import annotations

import struct
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import cache, partial, reduce
from itertools import accumulate, chain, islice, repeat
from operator import attrgetter, itemgetter, or_, sub
from typing import Callable, Iterable, Optional, Union

from .events import (
    EVENT_TYPES,
    ConfirmMerge,
    EventLabel,
    InvalidEventError,
    MergeCancelled,
    MergeCompleted,
    MergeConfirmed,
    is_internal,
    label,
)
from .processes import AwaitCompletion, BeingMerged, Considering, LeaderProcState, leader_is_quiescent
# apply_event and enabled_events are unused here but stay importable as
# explorer attributes, which perfbench/tracer.py wraps.
from .world import (  # noqa: F401
    Configuration,
    ConfigurationError,
    Model,
    apply_event,
    enabled_events,
    is_terminal,
    model,
    quiescent_partition_violation,
)

# A witness path alternates configurations and events, starting and ending
# on a configuration: [c0, e1, c1, ..., ek, ck].
Path = list


# A local state's flags: it has a local-state message, it owes a duty, it is not quiescent.
MESSAGE, DUTY, BUSY = 1, 2, 4


@dataclass(frozen=True)
class Check:
    """A named invariant over int codes (see `world.Model`): fn(model, code, successors) at a state,
    fn(model, code, event int, successor code) at a transition; it returns a message or None.
    Its gate admits where fn can fire: gate(word) at a state, whose word ORs its locals' flags, and
    gate(event type, moved) at a transition, where moved says that some leader's (active, agent_set)
    differs across it.  fn must return None where its gate does not admit; no gate admits everywhere."""

    name: str
    kind: str  # "state" | "transition"
    fn: Callable
    on: tuple = ()  # event types a transition check inspects; () means all
    gate: Optional[Callable] = None


@dataclass(frozen=True)
class Violation:
    check: str
    message: str
    witness: Path


# An n-agent code packed as 2n unsigned shorts (local ints stay below 2**16): a state's dedup key and its row.
_row = cache(lambda n: struct.Struct(f"{2 * n}H"))


@dataclass
class StateGraph:
    """Deduplicated reachable states and transitions, in BFS order, as int
    arrays.  State i is its code, row i of `rows`, decoded only on demand; its
    transitions are offsets[i]:offsets[i + 1] of `events` and `targets`."""

    initial: Configuration
    model: Model  # the model whose ints the arrays hold
    index: dict = field(default_factory=dict)  # packed code -> idx
    rows: array = field(default_factory=partial(array, "H"))
    offsets: array = field(default_factory=partial(array, "I", [0]))
    events: array = field(default_factory=partial(array, "H"))
    targets: array = field(default_factory=partial(array, "I"))
    parent: array = field(default_factory=partial(array, "I", [0]))  # idx -> the state it was discovered from
    violations: list = field(default_factory=list)
    truncated: set = field(default_factory=set)  # idx whose successors a bound cut

    @property
    def complete(self) -> bool:
        return not self.truncated

    @property
    def state_count(self) -> int:
        return len(self.index)

    @property
    def transition_count(self) -> int:
        return len(self.targets)

    def state(self, idx: int) -> Configuration:
        """The configuration of state idx, decoded from its row."""
        row = _row(self.initial.params.n)
        return self.model.decode(row.unpack_from(self.rows, idx * row.size))

    def edges(self) -> Iterable[tuple]:
        """(source idx, label int, target idx) of every transition, in order."""
        off = self.offsets
        sources = chain.from_iterable(map(repeat, range(self.state_count), map(sub, islice(off, 1, None), off)))
        return zip(sources, self.events, self.targets)

    def path_to(self, idx: int) -> Path:
        """Replayable witness path from the initial state to state idx.  The
        first transition of its parent into a state is the one that found it."""
        path: Path = [self.state(idx)]
        while idx:
            p = self.parent[idx]
            ev = self.events[self.targets.index(idx, self.offsets[p], self.offsets[p + 1])]
            path += (self.model.labels[ev], self.state(p))
            idx = p
        return path[::-1]


class _LocalFacts(dict):
    """By local int, computed at the first lookup: a process's local-state message, its duties as
    (label int, message if that label is not enabled; -1 never is), and its flags.
    Only a state whose processes are all quiescent is decoded, for the partition check."""

    def __init__(self, m: Model):
        self.m = m

    def __missing__(self, x: int) -> tuple:
        s, msg, duties = self.m.locals[x], None, []
        if isinstance(s, LeaderProcState):
            if s.active and s.id not in s.agent_set:
                msg = f"active leader {s.id} missing from its own agent set"
            for rq in s.pending_cancels:
                owed = self.m.labels.index(MergeCancelled(rq, s.id))
                duties.append((owed, f"{s.id} owes merge_cancelled to {rq} but cannot reply"))
            if not s.active and isinstance(s.phase, (Considering, BeingMerged, AwaitCompletion)):
                duties.append((-1, f"demoted leader {s.id} is progressing a merge confirmation"))
        elif s.id not in s.known_group:
            msg = f"{s.id} missing from its own known group"
        elif s.believed_leader not in s.known_group:
            msg = f"{s.id}'s believed leader {s.believed_leader} outside its known group"
        quiescent = leader_is_quiescent(s) if isinstance(s, LeaderProcState) else not s.has_outstanding_request
        flags = MESSAGE * (msg is not None) | DUTY * bool(duties) | BUSY * (not quiescent)
        facts = self[x] = (msg, tuple(duties), flags)
        return facts

    def word(self, code: tuple) -> int:
        """The OR of the flags of code's locals."""
        return reduce(or_, map(itemgetter(2), map(self.__getitem__, code)))


_facts = cache(_LocalFacts)  # one table per model


def _leader_pairs(m: Model, code: tuple) -> tuple:
    return tuple(map(attrgetter("active", "agent_set"), map(m.locals.__getitem__, code[m.n :])))


def _local_state_violation(m: Model, code: tuple, succs: list) -> Optional[str]:
    return next(filter(None, map(itemgetter(0), map(_facts(m).__getitem__, code))), None)


def _req2_cancel_violation(m: Model, code: tuple, succs: list) -> Optional[str]:
    duties = list(chain.from_iterable(map(itemgetter(1), map(_facts(m).__getitem__, code[m.n :]))))
    enabled = duties and {ev for ev, _ in succs}
    return next((msg for ev, msg in duties if ev not in enabled), None)


def _quiescent_violation(m: Model, code: tuple, succs: list) -> Optional[str]:
    if not _facts(m).word(code) & BUSY:
        return quiescent_partition_violation(m.decode(code))
    return None


def _req1_violation(m: Model, code: tuple, ev: int, code2: tuple) -> Optional[str]:
    e = m.labels[ev]
    if isinstance(e, ConfirmMerge) and e.req_leader.index >= e.other_leader.index:
        return f"confirm_merge from {e.req_leader} to higher-priority {e.other_leader}"
    return None


def _req2_confirm_violation(m: Model, code: tuple, ev: int, code2: tuple) -> Optional[str]:
    e = m.labels[ev]
    if isinstance(e, MergeConfirmed) and not m.locals[code[m.n + e.other_leader.index - 1]].active:
        return f"demoted leader {e.other_leader} emitted merge_confirmed"
    return None


def _monotone_violation(m: Model, code: tuple, ev: int, code2: tuple) -> Optional[str]:
    drop = 0
    for x, y in zip(code[m.n :], code2[m.n :]):
        if x == y:
            continue
        pre, post = m.locals[x], m.locals[y]
        if post.active and not pre.agent_set <= post.agent_set:
            return f"active leader {post.id}'s agent set shrank"
        drop += pre.active - post.active
    e = m.labels[ev]
    if drop != (1 if isinstance(e, MergeCompleted) else 0):
        return f"active leader count changed by {drop} on {label(e)}"
    return None


def default_checks() -> list[Check]:
    return [
        # The message is some local's, and a local with a message has the MESSAGE flag.
        Check("local-state", "state", _local_state_violation, gate=lambda w: w & MESSAGE),
        # Only a duty goes unmet, and a leader with a duty has the DUTY flag.
        Check("req2-cancel-answered", "state", _req2_cancel_violation, gate=lambda w: w & DUTY),
        # A state with a BUSY local is not quiescent, and the partition holds only in quiescent states.
        Check("quiescent-partition", "state", _quiescent_violation, gate=lambda w: not w & BUSY),
        Check("req1-priority", "transition", _req1_violation, (ConfirmMerge,)),
        # Dropping the active guard alone does not fire this: a demoted leader in Considering offers a merge_confirmed
        # carrying its empty agent set, which the requester refuses.  Dropping that refusal too makes it fire.
        Check("req2-confirm-active", "transition", _req2_confirm_violation, (MergeConfirmed,)),
        # Where no leader's (active, agent_set) moves, no set shrinks and the count holds: only merge_completed fails.
        Check("active-monotone", "transition", _monotone_violation, gate=lambda t, moved: moved or t is MergeCompleted),
    ]


def explore(
    c0: Configuration,
    *,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    checks: Optional[Iterable[Check]] = None,
) -> StateGraph:
    """Breadth-first closure of `world.Model.successors` over integer codes.

    Every registered invariant is evaluated at every state, and at every
    transition of a type it inspects, wherever its gate admits (see
    `Check`); BFS order makes every violation witness minimal in length.
    Hitting a bound leaves the graph flagged incomplete.
    """
    if (max_states is not None and max_states < 1) or (max_depth is not None and max_depth < 0):
        raise ConfigurationError("exploration bounds must be positive")
    checks = list(default_checks() if checks is None else checks)
    gated = any(k.gate for k in checks)  # else no state word or leader signature is computed
    # The checks to run: by state word (three flag bits), and by event type and whether a leader's pair changes.
    state_checks = [[k for k in checks if k.kind == "state" and (not k.gate or k.gate(w))] for w in range(8)]
    trans_checks = [k for k in checks if k.kind == "transition"]
    typed = {t: [k for k in trans_checks if not k.on or issubclass(t, k.on)] for t in EVENT_TYPES.values()}
    checks_on = {t: [[k for k in ks if not k.gate or k.gate(t, moved)] for moved in (0, 1)] for t, ks in typed.items()}

    m, row = model(c0.params), _row(c0.params.n)
    code0 = m.encode(c0)
    facts = _facts(m)
    # Each state's signature numbers its _leader_pairs: one byte while there are at most 256 (49 at n=4).
    signatures, sigs = {_leader_pairs(m, code0): 0}, array("B", [0] if gated else [])
    g = StateGraph(c0, m, index={row.pack(*code0): 0}, rows=array("H", code0))
    index, rows, events, targets, labels = g.index, g.rows, g.events, g.targets, m.labels
    # States are expanded in index order, which is BFS order; layer_end ends the current depth.
    idx, depth, layer_end = 0, 0, 1
    while idx < len(index):
        if idx == layer_end:
            depth, layer_end = depth + 1, len(index)
        code = row.unpack_from(rows, idx * row.size)
        succs = m.successors(code)
        for chk in state_checks[gated and facts.word(code)]:
            msg = chk.fn(m, code, succs)
            if msg is not None:
                g.violations.append(Violation(chk.name, msg, g.path_to(idx)))
        for ev, code2 in succs:
            key = row.pack(*code2)
            j = index.get(key)
            if j is None:
                if max_states is not None and len(index) >= max_states or max_depth is not None and depth >= max_depth:
                    g.truncated.add(idx)
                    continue
                j = index[key] = len(index)
                rows.frombytes(key)
                g.parent.append(idx)
                if gated:
                    sig = signatures.setdefault(_leader_pairs(m, code2), len(signatures))
                    sigs = array("I", sigs) if sig == 256 else sigs
                    sigs.append(sig)
            events.append(ev)
            targets.append(j)
            for chk in checks_on[type(labels[ev])][gated and sigs[idx] != sigs[j]]:
                msg = chk.fn(m, code, ev, code2)
                if msg is not None:
                    g.violations.append(Violation(chk.name, msg, g.path_to(idx) + [labels[ev], g.state(j)]))
        g.offsets.append(len(targets))
        idx += 1
    return g


class AllVisible:
    """Sentinel alphabet: every event is visible except internal ones."""

    def __contains__(self, e: EventLabel) -> bool:
        return not is_internal(e)

    def __eq__(self, other) -> bool:
        return isinstance(other, AllVisible)

    def __hash__(self) -> int:
        return hash(AllVisible)

    def __repr__(self) -> str:
        return "ALL_VISIBLE"


ALL_VISIBLE = AllVisible()


@dataclass(frozen=True)
class TraceQuery:
    """A visible-event sequence plus the alphabet it is observed through;
    events outside the alphabet are hidden."""

    trace: tuple
    alphabet: Union[frozenset, AllVisible] = ALL_VISIBLE

    def __post_init__(self):
        for e in self.trace:
            if e not in self.alphabet:
                raise InvalidEventError(f"trace event {label(e)} not in the visible alphabet")


@dataclass
class TraceResult:
    found: bool
    witness: Optional[list] = None  # full unprojected event sequence
    complete: bool = True

    def __bool__(self) -> bool:
        return self.found


def has_trace(c0: Configuration, q: TraceQuery, *, max_states: Optional[int] = None) -> TraceResult:
    """Does some execution project (under hiding) to exactly q.trace?

    Traces-model semantics: prefixes count, so the execution need not stop
    once the trace is matched.  The witness is the full unprojected event
    sequence of a matching execution.
    """
    if max_states is not None and max_states < 1:
        raise ConfigurationError("exploration bounds must be positive")
    target = len(q.trace)
    if target == 0:
        return TraceResult(True, [])
    m = model(c0.params)
    matches: dict = {}  # event int -> trace positions it matches, or None if hidden
    start = (m.encode(c0), 0)
    visited = {start: None}  # (code, matched) -> (parent_key, event int) | None
    frontier = deque([start])
    expanded = 0
    while frontier:
        key = frontier.popleft()
        code, k = key
        expanded += 1
        if max_states is not None and expanded > max_states:
            return TraceResult(False, None, complete=False)
        for ev, code2 in m.successors(code):
            if ev not in matches:
                e = m.labels[ev]
                matches[ev] = frozenset(i for i, t in enumerate(q.trace) if t == e) if e in q.alphabet else None
            at = matches[ev]
            if at is None:
                nxt = (code2, k)
            elif k in at:
                nxt = (code2, k + 1)
            else:
                continue
            if nxt in visited:
                continue
            visited[nxt] = (key, ev)
            if nxt[1] == target:
                steps = [ev]
                back = key
                while visited[back] is not None:
                    pkey, pe = visited[back]
                    steps.append(pe)
                    back = pkey
                return TraceResult(True, [m.labels[s] for s in reversed(steps)])
            frontier.append(nxt)
    return TraceResult(False, None)


def find_deadlocks(g: StateGraph) -> list:
    """Witness paths to every state of `g` that is not terminal and has no
    enabled events.  States whose successors a bound cut are not deadlocks."""
    off = g.offsets
    return [
        g.path_to(i)
        for i, (start, end) in enumerate(zip(off, islice(off, 1, None)))
        if start == end and i not in g.truncated and not is_terminal(g.state(i))
    ]


@dataclass
class DivergenceWitness:
    prefix: Path  # from the initial state to the cycle entry
    cycle: list  # events around the hidden cycle


def find_hidden_divergence(
    g: StateGraph, hidden: Union[frozenset, set, Callable[[EventLabel], bool]]
) -> Optional[DivergenceWitness]:
    """A cycle of `g` labelled entirely by hidden events, if one exists."""
    labels, off, events, targets = g.model.labels, g.offsets, g.events, g.targets
    mask = bytes(bool(hidden(e) if callable(hidden) else e in hidden) for e in labels)  # label int -> hidden
    # Iterative DFS over the hidden edges; a back edge to a node on the stack
    # closes a divergent cycle, which runs from that node's frame up the stack.
    color = bytearray(g.state_count)  # 0 unseen, 1 on stack, 2 done
    for root in range(g.state_count):
        if color[root]:
            continue
        color[root] = 1
        stack = [[root, off[root], None]]  # node, next edge position, label int of the edge into it
        while stack:
            node, k, _ = top = stack[-1]
            end = off[node + 1]
            while k < end and not mask[events[k]]:
                k += 1
            if k == end:
                color[node] = 2
                stack.pop()
                continue
            top[1] = k + 1
            j = targets[k]
            if color[j] == 1:
                start = [f[0] for f in stack].index(j)
                cycle = [labels[f[2]] for f in stack[start + 1 :]] + [labels[events[k]]]
                return DivergenceWitness(g.path_to(j), cycle)
            if not color[j]:
                color[j] = 1
                stack.append([j, off[j], events[k]])
    return None


@dataclass
class InevitabilityResult:
    value: Optional[bool]  # None when exploration was incomplete
    counterexample: Optional[Path] = None
    complete: bool = True

    def __bool__(self) -> bool:
        return bool(self.value)


def check_inevitable(g: StateGraph, goal: Callable[[Configuration], bool]) -> InevitabilityResult:
    """AG EF goal: from every state of `g` some goal state stays reachable.
    The counterexample is a path to a state from which the goal is
    unreachable.  An incomplete `g` gives no verdict."""
    if not g.complete:
        return InevitabilityResult(None, complete=False)
    # Reverse index by counting sort: preds[first[j]:first[j + 1]] are the sources of the transitions into j.
    first = array("I", bytes(4 * (g.state_count + 1)))
    for j in g.targets:
        first[j] += 1
    first, preds = array("I", accumulate(first)), array("I", bytes(4 * g.transition_count))
    for i, _, j in g.edges():  # fills each bucket from its end, leaving first[j] at its start
        first[j] -= 1
        preds[first[j]] = i
    # The goal is read deepest state first, only where no goal state found so far is reachable.
    reach = bytearray(g.state_count)  # 0 not yet read, 1 reaches a goal state, 2 not a goal state
    i = g.state_count
    while (i := reach.rfind(0, 0, i)) >= 0:
        reach[i] = 1 if goal(g.state(i)) else 2
        queue = array("I", [i] if reach[i] == 1 else [])
        for j in queue:  # grows as it is read
            for p in preds[first[j] : first[j + 1]]:
                if reach[p] != 1:
                    reach[p] = 1
                    queue.append(p)
    i = reach.find(2)
    return InevitabilityResult(True) if i < 0 else InevitabilityResult(False, g.path_to(i))


def label_nondeterminism_report(g: StateGraph) -> dict:
    """States offering several distinct labels (external choice): an out-degree above 1, as a state offers
    each label once.  Reported for information; label determinism itself is an assertable invariant."""
    off = g.offsets
    multi = sum(end - start > 1 for start, end in zip(off, islice(off, 1, None)))
    return {"states_with_choice": multi, "states_total": g.state_count}
