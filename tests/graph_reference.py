"""Reference versions of what explorer and export compute over int arrays:
the Configuration-level invariant checks, the dict-based post-analyses, as
they were before the graph was stored as arrays, the node label of a
decoded state, the trace search over (key, position) tuple nodes, as it
was before a product node was one int, and the BFS over one dict of every
key, as it was before the visited set moved to a table of arrays.  The
differential tests compare the two on graphs and queries where each finds
something."""

from collections import deque
from functools import cache
from itertools import chain, repeat
from typing import Iterable, Optional

from mapmerge.events import EVENT_TYPES, ConfirmMerge, MergeCancelled, MergeCompleted, MergeConfirmed, label
from mapmerge.explorer import (
    Check,
    DivergenceWitness,
    InevitabilityResult,
    StateGraph,
    TraceQuery,
    TraceResult,
    Violation,
    default_checks,
)
from mapmerge.processes import AwaitCompletion, BeingMerged, Considering
from mapmerge.world import Configuration, ConfigurationError, Model, is_terminal, quiescent_partition_violation


def states(g) -> list:
    """Every state of `g`, decoded, by index."""
    return [g.state(i) for i in range(g.state_count)]


def edges(g) -> Iterable[tuple]:
    """(source idx, label int, target idx) of every transition of `g`, in order."""
    sources = chain.from_iterable(map(repeat, range(g.state_count), g.degrees()))
    return zip(sources, g.events, g.targets)


def transitions(g) -> list:
    """Every transition of `g` as (source idx, event, target idx), in order."""
    labels = g.model.labels
    return [(i, labels[ev], j) for i, ev, j in edges(g)]


# Configuration-level invariant checks.


def local_state_violation(c, enabled):
    for a in c.agents:
        if a.id not in a.known_group:
            return f"{a.id} missing from its own known group"
        if a.believed_leader not in a.known_group:
            return f"{a.id}'s believed leader {a.believed_leader} outside its known group"
    for l in c.leaders:
        if l.active and l.id not in l.agent_set:
            return f"active leader {l.id} missing from its own agent set"
    return None


def req1_violation(src, e, dst):
    if isinstance(e, ConfirmMerge) and e.req_leader.index >= e.other_leader.index:
        return f"confirm_merge from {e.req_leader} to higher-priority {e.other_leader}"
    return None


def req2_confirm_violation(src, e, dst):
    if isinstance(e, MergeConfirmed) and not src.leader(e.other_leader).active:
        return f"demoted leader {e.other_leader} emitted merge_confirmed"
    return None


def req2_cancel_violation(c, enabled):
    for l in c.leaders:
        for rq in l.pending_cancels:
            if MergeCancelled(rq, l.id) not in enabled:
                return f"{l.id} owes merge_cancelled to {rq} but cannot reply"
        if not l.active and isinstance(l.phase, (Considering, BeingMerged, AwaitCompletion)):
            return f"demoted leader {l.id} is progressing a merge confirmation"
    return None


def quiescent_violation(c, enabled):
    return quiescent_partition_violation(c)


def monotone_violation(src, e, dst):
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


def _on_states(fn):
    return lambda m, code, succs: fn(m.decode(code), [m.labels[ev] for ev, _ in succs])


def _on_transitions(fn):
    return lambda m, code, ev, key2: fn(m.decode(code), m.labels[ev], m.decode(m.code(key2)))


def reference_checks() -> list:
    """The default checks, each run on decoded configurations at every
    state or transition."""
    return [
        Check("local-state", "state", _on_states(local_state_violation)),
        Check("req2-cancel-answered", "state", _on_states(req2_cancel_violation)),
        Check("quiescent-partition", "state", _on_states(quiescent_violation)),
        Check("req1-priority", "transition", _on_transitions(req1_violation)),
        Check("req2-confirm-active", "transition", _on_transitions(req2_confirm_violation)),
        Check("active-monotone", "transition", _on_transitions(monotone_violation)),
    ]


# The export's node label.


def partition_label(c) -> str:
    """Human-readable summary of a configuration: each active leader with
    its agent set, demoted leaders elided."""
    parts = []
    for l in c.leaders:
        if l.active:
            members = ",".join(a.name for a in sorted(l.agent_set))
            parts.append(f"{l.id}:{{{members}}}")
    return " ".join(parts) if parts else "(no active leaders)"


# Dict-based post-analyses.


def find_deadlocks(g) -> list:
    out_degree = [0] * g.state_count
    for i, _, _ in transitions(g):
        out_degree[i] += 1
    return [
        g.path_to(i)
        for i, c in enumerate(states(g))
        if out_degree[i] == 0 and i not in g.truncated and not is_terminal(c)
    ]


def find_hidden_divergence(g, hidden):
    is_hidden = hidden if callable(hidden) else (lambda e: e in hidden)
    adj: dict = {}
    for i, e, j in transitions(g):
        if is_hidden(e):
            adj.setdefault(i, []).append((e, j))
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


def check_inevitable(g, goal):
    if not g.complete:
        return InevitabilityResult(None)
    rev: dict = {}
    for i, _, j in transitions(g):
        rev.setdefault(j, []).append(i)
    can_reach = [False] * g.state_count
    frontier = deque(i for i, c in enumerate(states(g)) if goal(c))
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


def choice_report(g) -> dict:
    out_labels: dict = {}
    for i, e, _ in transitions(g):
        out_labels.setdefault(i, set()).add(e)
    multi = sum(1 for labels in out_labels.values() if len(labels) > 1)
    return {"states_with_choice": multi, "states_total": g.state_count}


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
    m = Model(c0.params)
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


def explore(
    c0: Configuration,
    *,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    checks: Optional[Iterable[Check]] = None,
) -> StateGraph:
    """Breadth-first closure of `world.Model.successors` over integer keys,
    deduplicated on one dict of every key; each check is given the code
    that the state's row holds."""
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

    m = Model(c0.params)
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
            msg = chk.fn(m, code, succs)
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
                    msg = chk.fn(m, code, ev, key2)
                    if msg is not None:
                        witness = g.path_to(idx) + [labels[ev], m.decode(m.code(key2))]
                        g.violations.append(Violation(chk.name, msg, witness))
        g.offsets.append(len(targets))
        idx += 1
    return g
