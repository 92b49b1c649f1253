"""Reference versions of what explorer and export compute over int arrays:
the Configuration-level invariant checks, the dict-based post-analyses, as
they were before the graph was stored as arrays, and the node label of a
decoded state.  The differential tests compare the two on graphs where each
finds something."""

from collections import deque

from mapmerge.events import ConfirmMerge, MergeCancelled, MergeCompleted, MergeConfirmed, label
from mapmerge.explorer import Check, DivergenceWitness, InevitabilityResult
from mapmerge.processes import AwaitCompletion, BeingMerged, Considering
from mapmerge.world import is_terminal, quiescent_partition_violation


def states(g) -> list:
    """Every state of `g`, decoded, by index."""
    return [g.state(i) for i in range(g.state_count)]


def transitions(g) -> list:
    """Every transition of `g` as (source idx, event, target idx), in order."""
    labels = g.model.labels
    return [(i, labels[ev], j) for i, ev, j in g.edges()]


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
    return lambda m, key, succs: fn(m.decode(m.code(key)), [m.labels[ev] for ev, _ in succs])


def _on_transitions(fn):
    return lambda m, key, ev, key2: fn(m.decode(m.code(key)), m.labels[ev], m.decode(m.code(key2)))


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
