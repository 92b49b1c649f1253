"""Explicit-state exploration: breadth-first reachability with invariant
checking, trace-membership queries under hiding, deadlock and hidden-
divergence detection, and AG-EF inevitability."""

from __future__ import annotations

import struct
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import accumulate, chain, compress, islice, repeat
from operator import not_, sub
from typing import Callable, Iterable, Optional

from .events import (
    EVENT_TYPES,
    ConfirmMerge,
    EventLabel,
    InvalidEventError,
    MergeCompleted,
    MergeConfirmed,
    is_internal,
    label,
)
# apply_event and enabled_events are unused here but stay importable as
# explorer attributes, which perfbench/tracer.py wraps.
from .world import (  # noqa: F401
    BUSY,
    DUTY,
    MESSAGE,
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


@dataclass(frozen=True)
class Check:
    """A named invariant over int keys (see `world.Model`): fn(model, key, successors) at a state,
    with successors as `Model.successors` gives them, and fn(model, key, event int, successor
    key) at a transition; it returns a message or None.  Its gate admits where fn can fire:
    gate(word) at a state, whose word is its key's count word (`key >> Model.count_shift`, with
    the fields `world.MESSAGE`, `DUTY` and `BUSY`), and gate(event type, shift) at a transition,
    where shift is the label's `Model.shifts` flag: 0 says no transition on the label changes a
    leader's (active, agent_set).  fn must return None where its gate does not admit; no gate
    admits everywhere."""

    name: str
    kind: str  # "state" | "transition"
    fn: Callable
    gate: Optional[Callable] = None


@dataclass(frozen=True)
class Violation:
    check: str
    message: str
    witness: Path


# An n-agent code packed as 2n unsigned shorts (local ints stay below 2**16): a state's row in `StateGraph.rows`.
_row = cache(lambda n: struct.Struct(f"{2 * n}H"))


@dataclass
class StateGraph:
    """Deduplicated reachable states and transitions, in BFS order, as int
    arrays.  Row i of `rows` holds the local ints of state i, one per slot of
    its key (see `world.Model`); it is decoded only on demand.  Its
    transitions are offsets[i]:offsets[i + 1] of `events` and `targets`."""

    initial: Configuration
    model: Model  # the model whose ints the arrays hold
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
        return len(self.parent)

    @property
    def transition_count(self) -> int:
        return len(self.targets)

    def code(self, idx: int) -> tuple:
        """The local ints of state idx, read from its row."""
        row = _row(self.initial.params.n)
        return row.unpack_from(self.rows, idx * row.size)

    def state(self, idx: int) -> Configuration:
        """The configuration of state idx, decoded from its row."""
        return self.model.decode(self.code(idx))

    def degrees(self) -> Iterable[int]:
        """The out-degree of every state, in order."""
        off = self.offsets
        return map(sub, islice(off, 1, None), off)

    def edges(self) -> Iterable[tuple]:
        """(source idx, label int, target idx) of every transition, in order."""
        sources = chain.from_iterable(map(repeat, range(self.state_count), self.degrees()))
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


def _local_state_violation(m: Model, key: int, succs: list) -> Optional[str]:
    return next(filter(None, (m.faults[x][0] for x in m.code(key))), None)


def _req2_cancel_violation(m: Model, key: int, succs: list) -> Optional[str]:
    duties = [duty for x in m.code(key)[m.n :] for duty in m.faults[x][1]]
    enabled = duties and {ev for ev, _ in succs}
    return next((msg for ev, msg in duties if ev not in enabled), None)


def _quiescent_violation(m: Model, key: int, succs: list) -> Optional[str]:
    return quiescent_partition_violation(m.decode(m.code(key)))


def _req1_violation(m: Model, key: int, ev: int, key2: int) -> Optional[str]:
    e = m.labels[ev]
    if isinstance(e, ConfirmMerge) and e.req_leader.index >= e.other_leader.index:
        return f"confirm_merge from {e.req_leader} to higher-priority {e.other_leader}"
    return None


def _req2_confirm_violation(m: Model, key: int, ev: int, key2: int) -> Optional[str]:
    e = m.labels[ev]
    if isinstance(e, MergeConfirmed) and not m.locals[m.code(key)[m.n + e.other_leader.index - 1]].active:
        return f"demoted leader {e.other_leader} emitted merge_confirmed"
    return None


def _monotone_violation(m: Model, key: int, ev: int, key2: int) -> Optional[str]:
    drop = 0
    for x, y in zip(m.code(key)[m.n :], m.code(key2)[m.n :]):
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
        # The message is some local's, and a local with a message counts in the MESSAGE field.
        Check("local-state", "state", _local_state_violation, gate=lambda w: w & MESSAGE),
        # Only a duty goes unmet, and a leader with a duty counts in the DUTY field.
        Check("req2-cancel-answered", "state", _req2_cancel_violation, gate=lambda w: w & DUTY),
        # A state with a BUSY count is not quiescent, where quiescent_partition_violation returns None.
        Check("quiescent-partition", "state", _quiescent_violation, gate=lambda w: not w & BUSY),
        Check("req1-priority", "transition", _req1_violation, gate=lambda t, _: t is ConfirmMerge),
        # Dropping the active guard alone does not fire this: a demoted leader in Considering offers a merge_confirmed
        # carrying its empty agent set, which the requester refuses.  Dropping that refusal too makes it fire.
        Check("req2-confirm-active", "transition", _req2_confirm_violation, gate=lambda t, _: t is MergeConfirmed),
        # On a label none of whose steps moves a leader's (active, agent_set), only merge_completed can fail.
        Check("active-monotone", "transition", _monotone_violation, gate=lambda t, shift: shift or t is MergeCompleted),
    ]


def explore(
    c0: Configuration,
    *,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    checks: Optional[Iterable[Check]] = None,
) -> StateGraph:
    """Breadth-first closure of `world.Model.successors` over integer keys.

    Every registered invariant is evaluated at every state or transition
    where its gate admits (see `Check`); BFS order makes every violation
    witness minimal in length.  Hitting a bound leaves the graph flagged
    incomplete.
    """
    if (max_states is not None and max_states < 1) or (max_depth is not None and max_depth < 0):
        raise ConfigurationError("exploration bounds must be positive")
    checks = list(default_checks() if checks is None else checks)
    state = [k for k in checks if k.kind == "state"]
    trans = [k for k in checks if k.kind == "transition"]
    # The checks to run: by count word, and by event type and the label's shift flag.
    state_checks = cache(lambda w: [k for k in state if not k.gate or k.gate(w)])
    checks_on = {t: [[k for k in trans if not k.gate or k.gate(t, f)] for f in (0, 1)] for t in EVENT_TYPES.values()}
    # watched: event int -> its checks, for each label that some check admits under the shift flags in seen; it is
    # rebuilt when a label is interned or a flag flips, as both happen while the model's tables fill.
    watched, seen = {}, b""

    m = model(c0.params)
    key0, top = m.encode(c0), m.count_shift
    index = {key0: 0}  # key -> idx
    g = StateGraph(c0, m)
    rows, events, targets, labels, shifts = g.rows, g.events, g.targets, m.labels, m.shifts
    # Every state is expanded and appends its row, in index order (BFS order); layer_end ends the current depth.
    queue, idx, depth, layer_end = deque([key0]), 0, 0, 1  # queue: the keys of the states not yet expanded
    while queue:
        key = queue.popleft()
        if idx == layer_end:
            depth, layer_end = depth + 1, len(index)
        code = m.code(key)
        rows.extend(code)
        succs = m.successors(key, code)
        if shifts != seen:
            seen = bytes(shifts)
            watched = {ev: ks for ev, (e, f) in enumerate(zip(labels, seen)) if (ks := checks_on[type(e)][f])}
        for chk in state_checks(key >> top):
            msg = chk.fn(m, key, succs)
            if msg is not None:
                g.violations.append(Violation(chk.name, msg, g.path_to(idx)))
        for ev, key2 in succs:
            j = index.get(key2)
            if j is None:
                if max_states is not None and len(index) >= max_states or max_depth is not None and depth >= max_depth:
                    g.truncated.add(idx)
                    continue
                j = index[key2] = len(index)
                g.parent.append(idx)
                queue.append(key2)
            events.append(ev)
            targets.append(j)
            if ev in watched:
                for chk in watched[ev]:
                    msg = chk.fn(m, key, ev, key2)
                    if msg is not None:
                        witness = g.path_to(idx) + [labels[ev], m.decode(m.code(key2))]
                        g.violations.append(Violation(chk.name, msg, witness))
        g.offsets.append(len(targets))
        idx += 1
    return g


@dataclass(frozen=True)
class TraceQuery:
    """A visible-event sequence plus the alphabet it is observed through;
    events outside the alphabet are hidden.  No alphabet shows every event
    that is not internal."""

    trace: tuple
    alphabet: Optional[frozenset] = None

    def __post_init__(self):
        for e in self.trace:
            if not self.visible(e):
                raise InvalidEventError(f"trace event {label(e)} not in the visible alphabet")

    def visible(self, e: EventLabel) -> bool:
        return not is_internal(e) if self.alphabet is None else e in self.alphabet


@dataclass
class TraceResult:
    found: bool
    witness: Optional[list] = None  # full unprojected event sequence
    complete: bool = True


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
    visited = {start: None}  # (key, matched) -> (parent, event int) | None
    frontier = deque([start])
    expanded = 0
    while frontier:
        node = frontier.popleft()
        key, k = node
        expanded += 1
        if max_states is not None and expanded > max_states:
            return TraceResult(False, None, complete=False)
        for ev, key2 in m.successors(key, m.code(key)):
            if ev not in matches:
                e = m.labels[ev]
                matches[ev] = frozenset(i for i, t in enumerate(q.trace) if t == e) if q.visible(e) else None
            at = matches[ev]
            if at is None:
                nxt = (key2, k)
            elif k in at:
                nxt = (key2, k + 1)
            else:
                continue
            if nxt in visited:
                continue
            visited[nxt] = (node, ev)
            if nxt[1] == target:
                steps = [ev]
                back = node
                while visited[back] is not None:
                    back, pe = visited[back]
                    steps.append(pe)
                return TraceResult(True, [m.labels[s] for s in reversed(steps)])
            frontier.append(nxt)
    return TraceResult(False, None)


def find_deadlocks(g: StateGraph) -> list:
    """Witness paths to every state of `g` that is not terminal and has no
    enabled events.  States whose successors a bound cut are not deadlocks."""
    ends = compress(range(g.state_count), map(not_, g.degrees()))
    return [g.path_to(i) for i in ends if i not in g.truncated and not is_terminal(g.state(i))]


@dataclass
class DivergenceWitness:
    prefix: Path  # from the initial state to the cycle entry
    cycle: list  # events around the hidden cycle


def find_hidden_divergence(g: StateGraph, hidden: Callable[[EventLabel], bool]) -> Optional[DivergenceWitness]:
    """A cycle of `g` labelled entirely by events that `hidden` holds for, if one exists."""
    labels, off, events, targets = g.model.labels, g.offsets, g.events, g.targets
    mask = bytes(map(bool, map(hidden, labels)))  # label int -> hidden
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


def check_inevitable(g: StateGraph, goal: Callable[[Configuration], bool]) -> InevitabilityResult:
    """AG EF goal: from every state of `g` some goal state stays reachable.
    The counterexample is a path to a state from which the goal is
    unreachable.  An incomplete `g` gives no verdict."""
    if not g.complete:
        return InevitabilityResult(None)
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
    multi = sum(map((1).__lt__, g.degrees()))
    return {"states_with_choice": multi, "states_total": g.state_count}
