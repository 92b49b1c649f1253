"""Explicit-state exploration: breadth-first reachability with invariant
checking, trace-membership queries under hiding, deadlock and hidden-
divergence detection, and AG-EF inevitability."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence, Union

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
from .processes import AwaitCompletion, BeingMerged, Considering
# apply_event and enabled_events are unused here but stay importable as
# explorer attributes, which perfbench/tracer.py wraps.
from .world import (  # noqa: F401
    Configuration,
    ConfigurationError,
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
    """A named invariant, evaluated at every state or transition."""

    name: str
    kind: str  # "state" | "transition"
    fn: Callable
    on: tuple = ()  # event types a transition check inspects; () means all


@dataclass(frozen=True)
class Violation:
    check: str
    message: str
    witness: Path


@dataclass
class StateGraph:
    """Deduplicated reachable states and transitions, in BFS order."""

    initial: Configuration
    states: list = field(default_factory=list)
    transitions: list = field(default_factory=list)  # (src_idx, event, dst_idx), one run per src_idx
    index: dict = field(default_factory=dict)  # code of world.model(initial.params) -> int
    parent: list = field(default_factory=list)  # idx -> (parent_idx, event) | None
    violations: list = field(default_factory=list)
    truncated: set = field(default_factory=set)  # idx whose successors a bound cut

    @property
    def complete(self) -> bool:
        return not self.truncated

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def transition_count(self) -> int:
        return len(self.transitions)

    def path_to(self, idx: int) -> Path:
        """Replayable witness path from the initial state to states[idx]."""
        steps = []
        while self.parent[idx] is not None:
            pidx, e = self.parent[idx]
            steps.append((e, idx))
            idx = pidx
        path: Path = [self.states[idx]]
        for e, i in reversed(steps):
            path.append(e)
            path.append(self.states[i])
        return path


def _local_state_violation(c: Configuration, enabled: Sequence[EventLabel]) -> Optional[str]:
    for a in c.agents:
        if a.id not in a.known_group:
            return f"{a.id} missing from its own known group"
        if a.believed_leader not in a.known_group:
            return f"{a.id}'s believed leader {a.believed_leader} outside its known group"
    for l in c.leaders:
        if l.active and l.id not in l.agent_set:
            return f"active leader {l.id} missing from its own agent set"
    return None


def _req1_violation(src: Configuration, e: EventLabel, dst: Configuration) -> Optional[str]:
    if isinstance(e, ConfirmMerge) and e.req_leader.index >= e.other_leader.index:
        return f"confirm_merge from {e.req_leader} to higher-priority {e.other_leader}"
    return None


def _req2_confirm_violation(src: Configuration, e: EventLabel, dst: Configuration) -> Optional[str]:
    if isinstance(e, MergeConfirmed) and not src.leader(e.other_leader).active:
        return f"demoted leader {e.other_leader} emitted merge_confirmed"
    return None


def _req2_cancel_violation(c: Configuration, enabled: Sequence[EventLabel]) -> Optional[str]:
    for l in c.leaders:
        for rq in l.pending_cancels:
            if MergeCancelled(rq, l.id) not in enabled:
                return f"{l.id} owes merge_cancelled to {rq} but cannot reply"
        if not l.active and isinstance(l.phase, (Considering, BeingMerged, AwaitCompletion)):
            return f"demoted leader {l.id} is progressing a merge confirmation"
    return None


def _quiescent_violation(c: Configuration, enabled: Sequence[EventLabel]) -> Optional[str]:
    return quiescent_partition_violation(c)


def _monotone_violation(src: Configuration, e: EventLabel, dst: Configuration) -> Optional[str]:
    drop = 0
    for pre, post in zip(src.leaders, dst.leaders):
        if pre is post:
            continue
        if post.active and not pre.agent_set <= post.agent_set:
            return f"active leader {post.id}'s agent set shrank"
        drop += pre.active - post.active
    expected = 1 if isinstance(e, MergeCompleted) else 0
    if drop != expected:
        return f"active leader count changed by {drop} on {label(e)}"
    return None


def default_checks() -> list[Check]:
    return [
        Check("local-state", "state", _local_state_violation),
        Check("req2-cancel-answered", "state", _req2_cancel_violation),
        Check("quiescent-partition", "state", _quiescent_violation),
        Check("req1-priority", "transition", _req1_violation, (ConfirmMerge,)),
        Check("req2-confirm-active", "transition", _req2_confirm_violation, (MergeConfirmed,)),
        Check("active-monotone", "transition", _monotone_violation),
    ]


def explore(
    c0: Configuration,
    *,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    checks: Optional[Iterable[Check]] = None,
) -> StateGraph:
    """Breadth-first closure of `world.Model.successors` over integer codes.

    Every registered invariant is evaluated at every state and at every
    transition of a type it inspects; BFS order makes every violation
    witness minimal in length.  Hitting a bound leaves the graph flagged
    incomplete.
    """
    if (max_states is not None and max_states < 1) or (max_depth is not None and max_depth < 0):
        raise ConfigurationError("exploration bounds must be positive")
    checks = list(default_checks() if checks is None else checks)
    state_checks = [c for c in checks if c.kind == "state"]
    trans_checks = [c for c in checks if c.kind == "transition"]
    checks_on = {t: [k for k in trans_checks if not k.on or issubclass(t, k.on)] for t in EVENT_TYPES.values()}

    m = model(c0.params)
    code0 = m.encode(c0)
    g = StateGraph(initial=c0)
    states, index = g.states, g.index
    states.append(c0)
    index[code0] = 0
    g.parent.append(None)
    depth = [0]
    frontier = deque([(0, code0)])  # (idx, code) of the states to expand, in BFS order
    while frontier:
        idx, code = frontier.popleft()
        succs = m.successors(code)
        c = states[idx]
        if state_checks:
            enabled = [m.labels[ev] for ev, _ in succs]
            for chk in state_checks:
                msg = chk.fn(c, enabled)
                if msg is not None:
                    g.violations.append(Violation(chk.name, msg, g.path_to(idx)))
        for ev, code2 in succs:
            e = m.labels[ev]
            j = index.get(code2)
            if j is None:
                if (max_states is not None and len(states) >= max_states) or (
                    max_depth is not None and depth[idx] >= max_depth
                ):
                    g.truncated.add(idx)
                    continue
                j = len(states)
                states.append(m.decode(code2))
                index[code2] = j
                g.parent.append((idx, e))
                depth.append(depth[idx] + 1)
                frontier.append((j, code2))  # j shared with index and transitions
            g.transitions.append((idx, e, j))
            for chk in checks_on[type(e)]:
                msg = chk.fn(c, e, states[j])
                if msg is not None:
                    g.violations.append(Violation(chk.name, msg, g.path_to(idx) + [e, states[j]]))
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
    out_degree = [0] * g.state_count
    for i, _, _ in g.transitions:
        out_degree[i] += 1
    return [
        g.path_to(i)
        for i in range(g.state_count)
        if out_degree[i] == 0 and i not in g.truncated and not is_terminal(g.states[i])
    ]


@dataclass
class DivergenceWitness:
    prefix: Path  # from the initial state to the cycle entry
    cycle: list  # events around the hidden cycle


def find_hidden_divergence(
    g: StateGraph, hidden: Union[frozenset, set, Callable[[EventLabel], bool]]
) -> Optional[DivergenceWitness]:
    """A cycle of `g` labelled entirely by hidden events, if one exists."""
    is_hidden = hidden if callable(hidden) else (lambda e: e in hidden)
    adj: dict = {}
    for i, e, j in g.transitions:
        if is_hidden(e):
            adj.setdefault(i, []).append((e, j))
    # Iterative DFS over the hidden-only subgraph; a back edge to a node on
    # the current stack closes a divergent cycle.
    color = {}  # 0 absent, 1 on stack, 2 done
    for root in adj:
        if color.get(root):
            continue
        stack = [(root, iter(adj.get(root, [])))]
        color[root] = 1
        trail: list = []  # (node, event) pairs along the DFS stack
        while stack:
            node, it = stack[-1]
            advanced = False
            for e, j in it:
                if color.get(j) == 1:
                    # back edge: trim the DFS trail to the cycle through j
                    nodes_on_stack = [n for n, _ in trail] + [node]
                    start = nodes_on_stack.index(j)
                    cycle = [ev for (_, ev) in (trail + [(node, e)])[start:]]
                    return DivergenceWitness(g.path_to(j), cycle)
                if color.get(j) is None:
                    color[j] = 1
                    trail.append((node, e))
                    stack.append((j, iter(adj.get(j, []))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
                if trail:
                    trail.pop()
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
    rev: dict = {}
    for i, _, j in g.transitions:
        rev.setdefault(j, []).append(i)
    can_reach = [False] * g.state_count
    frontier = deque(i for i, c in enumerate(g.states) if goal(c))
    for i in frontier:
        can_reach[i] = True
    while frontier:
        j = frontier.popleft()
        for i in rev.get(j, ()):
            if not can_reach[i]:
                can_reach[i] = True
                frontier.append(i)
    for i, ok in enumerate(can_reach):
        if not ok:
            return InevitabilityResult(False, g.path_to(i))
    return InevitabilityResult(True)


def label_nondeterminism_report(g: StateGraph) -> dict:
    """States offering several distinct labels (external choice), reported
    for information; label determinism itself is an assertable invariant."""
    multi = sum(1 for _, run in groupby(g.transitions, itemgetter(0)) if len({e for _, e, _ in run}) > 1)
    return {"states_with_choice": multi, "states_total": g.state_count}
