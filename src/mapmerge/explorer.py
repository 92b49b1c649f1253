"""Explicit-state exploration: breadth-first reachability with invariant
checking, trace-membership queries under hiding, deadlock and hidden-
divergence detection, and AG-EF inevitability."""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_right
from collections import deque
from functools import cache
from itertools import compress, islice, repeat, starmap
from operator import itemgetter, mod, not_, sub
from typing import Callable, Iterable, NamedTuple, Optional

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
    quiescent_partition_violation,
)


class Check(NamedTuple):
    """A named invariant over int keys (see `world.Model`): fn(model, code, successors) at a
    state, with code its key's local ints (`Model.code`) and successors as `Model.successors`
    gives them, and fn(model, code, event int, successor key) at a transition, with code the
    source's; it returns a message or None.  Its gate admits where fn can fire:
    gate(word) at a state, whose word is its key's count word (`key >> Model.count_shift`, with
    the fields `world.MESSAGE`, `DUTY` and `BUSY`), and gate(event type, shift) at a transition,
    where shift is the label's `Model.shifts` flag: 0 says no transition on the label changes a
    leader's (active, agent_set).  fn must return None where its gate does not admit; no gate
    admits everywhere."""

    name: str
    kind: str  # "state" | "transition"
    fn: Callable
    gate: Optional[Callable] = None


class Violation(NamedTuple):
    """A check that fired at state idx, or on its transition labelled event (None for a state check).  Its
    witness is `StateGraph.path_to(idx)`, then event for a transition check."""

    check: str
    message: str
    idx: int
    event: Optional[EventLabel]


class StateGraph:
    """Deduplicated reachable states and transitions, in BFS order, as int arrays.  Row i of `rows` holds the local
    ints of state i, one per slot of its key (see `world.Model`); it is decoded only on demand.  Its transitions are
    offsets[i]:offsets[i + 1] of `events` and `targets`, and BFS layer d is layers[d]:layers[d + 1].  No array holds
    a state's parent: `path_to` finds the transition that found a state among those of the layer before."""

    def __init__(self, model: Model):
        self.model = model  # the model whose ints the arrays hold
        self.rows, self.offsets, self.events, self.targets = array("H"), array("I", [0]), array("H"), array("I")
        self.layers = array("I", [0])  # the first idx of each BFS layer, then the state count
        self.violations: list = []
        self.truncated: set = set()  # idx whose successors a bound cut

    @property
    def complete(self) -> bool:
        return not self.truncated

    @property
    def state_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def transition_count(self) -> int:
        return len(self.targets)

    def code(self, idx: int) -> tuple:
        """The local ints of state idx, read from its row."""
        w = 2 * self.model.n
        return tuple(self.rows[idx * w : (idx + 1) * w])

    def state(self, idx: int) -> Configuration:
        """The configuration of state idx, decoded from its row."""
        return self.model.decode(self.code(idx))

    def degrees(self) -> Iterable[int]:
        """The out-degree of every state, in order."""
        off = self.offsets
        return map(sub, islice(off, 1, None), off)

    def ends(self) -> Iterable[int]:
        """The indices of the states with no transition, in order: terminal, deadlocked or cut by a bound."""
        return compress(range(self.state_count), map(not_, self.degrees()))

    def path_to(self, idx: int) -> list:
        """The labels from the initial state to state idx, one per BFS layer: each the first transition into a state,
        which found it, sought among the previous layer's.  No state is decoded; `world.apply_event` replays them."""
        path, off, layers, targets = [], self.offsets, self.layers, self.targets
        for d in range(bisect_right(layers, idx) - 1, 0, -1):  # the layer of idx, then each one before it
            k = targets.index(idx, off[layers[d - 1]], off[layers[d]])
            path.append(self.model.labels[self.events[k]])
            idx = bisect_right(off, k) - 1
        return path[::-1]


def _local_state_violation(m: Model, code: tuple, succs: list) -> Optional[str]:
    return next(filter(None, (m.faults[x][0] for x in code)), None)


def _req2_cancel_violation(m: Model, code: tuple, succs: list) -> Optional[str]:
    enabled = set(map(itemgetter(0), succs))
    return next((msg for x in code[m.n :] for ev, msg in m.faults[x][1] if ev not in enabled), None)


def _quiescent_violation(m: Model, code: tuple, succs: list) -> Optional[str]:
    return quiescent_partition_violation(m.decode(code))


def _req1_violation(m: Model, code: tuple, ev: int, key2: int) -> Optional[str]:
    e = m.labels[ev]
    if isinstance(e, ConfirmMerge) and e.req_leader.index >= e.other_leader.index:
        return f"confirm_merge from {e.req_leader} to higher-priority {e.other_leader}"
    return None


def _req2_confirm_violation(m: Model, code: tuple, ev: int, key2: int) -> Optional[str]:
    e = m.labels[ev]
    if isinstance(e, MergeConfirmed) and not m.locals[code[m.n + e.other_leader.index - 1]].active:
        return f"demoted leader {e.other_leader} emitted merge_confirmed"
    return None


def _monotone_violation(m: Model, code: tuple, ev: int, key2: int) -> Optional[str]:
    drop = 0
    for x, y in zip(code[m.n :], m.code(key2)[m.n :]):
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


_hash = hash  # a row's bytes -> its hash in explore's table


def explore(
    c0: Configuration,
    *,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    checks: Optional[Iterable[Check]] = None,
) -> StateGraph:
    """Breadth-first closure of `world.Model.successors` over integer keys.

    Every registered invariant is evaluated at every state or transition
    where its gate admits (see `Check`); BFS order makes every witness, one
    transition per layer, minimal in length.  Hitting a bound leaves the
    graph flagged incomplete.  Running out of memory raises a `MemoryError` that names the states found.

    Deduplication is exact and keeps no key of an older layer.  Every
    state is in a chained hash table of arrays: a chain head per bucket,
    twice as many as states after each relink, and a link per state.  A
    bucket is `hash()` of a row's bytes, even under any bucket count, so no
    prime is needed; a hit is confirmed against the state's row in
    `StateGraph.rows`, so no two states merge.  A dict of the next
    layer's keys serves the transitions into that layer, 83% of them at
    n=4, without walking the table.  At n=4 the search peaks at about 65
    bytes per state, against 180 with one dict of every key.
    """
    if (max_states is not None and max_states < 1) or (max_depth is not None and max_depth < 0):
        raise ConfigurationError("exploration bounds must be positive")
    checks = list(default_checks() if checks is None else checks)
    if odd := [k.name for k in checks if k.kind not in ("state", "transition")]:
        raise ValueError(f"checks {odd} have a kind other than 'state' or 'transition'")
    state = [k for k in checks if k.kind == "state"]
    trans = [k for k in checks if k.kind == "transition"]
    # The checks to run: by count word, and by event type and the label's shift flag.
    state_checks = cache(lambda w: [k for k in state if not k.gate or k.gate(w)])
    checks_on = {t: [[k for k in trans if not k.gate or k.gate(t, f)] for f in (0, 1)] for t in EVENT_TYPES.values()}
    # watched: event int -> its checks, for each label that some check admits under the shift flags in seen; it is
    # rebuilt when a label is interned or a flag flips, as both happen while the model's tables fill.
    watched, seen = {}, b""

    m = Model(c0.params)
    key0, top, hash_of = m.encode(c0), m.count_shift, _hash
    g = StateGraph(m)
    rows, events, targets, layers, labels, shifts = g.rows, g.events, g.targets, g.layers, m.labels, m.shifts
    # Until the search ends, each row is the first bytes of its key's little-endian bytes, on any host; a key's slots
    # fix its count word, so a row tells keys apart.  row_at reads a row's local ints.
    width, nbytes, row_at, stride = 2 * m.n, m.key_bytes, m.row_struct.unpack_from, m.row_struct.size
    rows.frombytes(key0.to_bytes(nbytes, "little")[:stride])
    # nxt: the keys of the next layer -> idx.  The table of all states: heads[h % size], h the hash of a row's bytes, is
    # 1 + the idx of the newest state in h's bucket, links[i] 1 + the next older one in state i's, and 0 ends a chain.
    nxt, heads, links = {}, array("I", [1]), array("I", [0])
    size, layer, depth, idx, count = 1, [key0], 0, 0, 1  # layer: the current layer's keys; idx: the state expanded
    try:
        while layer:
            layers.append(count)
            for key in layer:
                code = row_at(rows, idx * stride)
                succs = m.successors(key, code)
                if shifts != seen:
                    seen = bytes(shifts)
                    watched = {ev: ks for ev, (e, f) in enumerate(zip(labels, seen)) if (ks := checks_on[type(e)][f])}
                for chk in state_checks(key >> top):
                    msg = chk.fn(m, code, succs)
                    if msg is not None:
                        g.violations.append(Violation(chk.name, msg, idx, None))
                for ev, key2 in succs:
                    j = nxt.get(key2)
                    if j is None:
                        kb = key2.to_bytes(nbytes, "little")
                        row = kb[:stride]
                        b = hash_of(row) % size
                        i = heads[b]
                        while i:
                            i -= 1
                            if kb.startswith(rows[i * width : i * width + width]):
                                j = i
                                break
                            i = links[i]
                        else:
                            if count == max_states or depth == max_depth:  # a bound reached (None matches no int)
                                g.truncated.add(idx)
                                continue
                            j = nxt[key2] = count
                            count += 1
                            rows.frombytes(row)
                            links.append(heads[b])
                            heads[b] = j + 1
                    events.append(ev)
                    targets.append(j)
                    if ev in watched:
                        for chk in watched[ev]:
                            msg = chk.fn(m, code, ev, key2)
                            if msg is not None:
                                g.violations.append(Violation(chk.name, msg, idx, labels[ev]))
                g.offsets.append(len(targets))
                idx += 1
            if count > size:  # relink every state into twice as many buckets as states
                size = 2 * count
                heads, links, all_rows = array("I", bytes(4 * size)), array("I"), struct.iter_unpack(f"{stride}s", rows)
                for i, b in enumerate(map(mod, starmap(hash_of, all_rows), repeat(size)), 1):
                    links.append(heads[b])
                    heads[b] = i
            layer, nxt, depth = list(nxt), {}, depth + 1
    except MemoryError as exc:
        raise MemoryError(f"out of memory after {count:,} states") from exc
    if sys.byteorder == "big":  # each row's ints, little-endian so far, are native from here on
        rows.byteswap()
    return g


class TraceQuery:
    """A visible-event sequence plus the alphabet it is observed through;
    events outside the alphabet are hidden.  No alphabet shows every event
    that is not internal."""

    def __init__(self, trace: tuple, alphabet: Optional[frozenset] = None):
        self.trace, self.alphabet = trace, alphabet
        for e in trace:
            if not self.visible(e):
                raise InvalidEventError(f"trace event {label(e)} not in the visible alphabet")

    def visible(self, e: EventLabel) -> bool:
        return not is_internal(e) if self.alphabet is None else e in self.alphabet


class TraceResult(NamedTuple):
    found: bool
    witness: Optional[list] = None  # full unprojected event sequence
    complete: bool = True


def has_trace(c0: Configuration, q: TraceQuery, *, max_states: Optional[int] = None) -> TraceResult:
    """Does some execution project (under hiding) to exactly q.trace?

    Traces-model semantics: prefixes count, so the execution need not stop
    once the trace is matched.  The witness is the full unprojected event
    sequence of a matching execution.

    A BFS over the product of the model and the trace automaton.  A product
    node, a state's key with k trace events matched, is the one int
    key + (k << `Model.key_bits`), and the search stores one int and one
    dict entry per node: `visited` maps a node to the node it was found
    from.  The witness is rebuilt by walking those parents back and taking,
    from each, its first product edge onto the child in canonical order,
    which is the edge that found the child.  Given max_states K, the search
    stops, incomplete, after expanding K product nodes.
    """
    if max_states is not None and max_states < 1:
        raise ConfigurationError("exploration bounds must be positive")
    target = len(q.trace)
    if target == 0:
        return TraceResult(True, [])
    m = Model(c0.params)
    bits = m.key_bits
    one = 1 << bits  # the node delta of one step of k
    mask, goal = one - 1, target * one
    # event int -> at each trace position k, its node delta: 0 if hidden, one if it is q.trace[k], None if it cannot
    # fire there.
    step_table: dict = {}

    def edges(node: int) -> Iterable[tuple]:
        """(event int, product node) of every product edge out of `node`, in canonical order."""
        key = node & mask
        k = node >> bits
        for ev, key2 in m.successors(key, m.code(key)):
            steps = step_table.get(ev)
            if steps is None:
                e = m.labels[ev]
                steps = step_table[ev] = [one if t == e else None for t in q.trace] if q.visible(e) else [0] * target
            if (d := steps[k]) is not None:
                yield ev, node - key + key2 + d

    start = m.encode(c0)
    visited = {start: None}  # product node -> the node it was found from, None at the start
    frontier = deque([start])
    expanded = 0
    while frontier:
        node = frontier.popleft()
        expanded += 1
        if max_states is not None and expanded > max_states:
            return TraceResult(False, None, complete=False)
        for _, nxt in edges(node):
            if nxt in visited:
                continue
            visited[nxt] = node
            if nxt >= goal:
                witness = []
                while node is not None:
                    witness.append(next(ev for ev, child in edges(node) if child == nxt))
                    node, nxt = visited[node], node
                return TraceResult(True, [m.labels[ev] for ev in reversed(witness)])
            frontier.append(nxt)
    return TraceResult(False, None)


def find_deadlocks(g: StateGraph) -> list:
    """The indices of the states of `g` that are not terminal and have no enabled events, in order; `g.path_to`
    gives each one's witness.  States whose successors a bound cut are not deadlocks."""
    return [i for i in g.ends() if i not in g.truncated and not is_terminal(g.state(i))]


class DivergenceWitness(NamedTuple):
    prefix: list  # event labels from the initial state to the cycle entry
    cycle: list  # event labels around the hidden cycle


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


class InevitabilityResult(NamedTuple):
    value: Optional[bool]  # None when exploration was incomplete
    counterexample: Optional[list] = None  # on False, the event labels to a state that reaches no goal


def check_inevitable(g: StateGraph, goal: Callable[[Configuration], bool]) -> InevitabilityResult:
    """AG EF goal: from every state of `g` some goal state stays reachable.
    The counterexample is the path to the lowest-index state from which none
    is.  An incomplete `g` gives no verdict.  An iterative Tarjan search over
    `offsets` and `targets` from each unsettled state, deepest first, ends
    once a state it enters has a successor known to reach a goal state, as
    then does every state on the Tarjan stack (each reaches the DFS path); a
    finished SCC, a slice of the stack, reads the goal of its own members.
    It holds 5 bytes per state and its stacks, and no reverse index."""
    if not g.complete:
        return InevitabilityResult(None)
    off, targets, reach = g.offsets, g.targets, bytearray(g.state_count)  # reach: 0 unsettled, 1 reaches a goal, 2 not
    low = array("I", bytes(4 * g.state_count))  # 0 not entered, else the least Tarjan-stack height it reaches
    for root in range(g.state_count - 1, -1, -1):
        if reach[root]:
            continue
        if 1 in map(reach.__getitem__, targets[off[root] : off[root + 1]]):  # 82,981 of 112,201 states at n=4
            reach[root] = 1
            continue
        # tarjan: the entered states in no finished SCC, each one's low its height (1-based) until it reaches a lower
        # one; path: the DFS path, each state followed by its next transition.  w is the state to enter, or -1.
        tarjan, path, w = array("I"), array("I"), root
        while True:
            if w >= 0:
                tarjan.append(w)
                if 1 in map(reach.__getitem__, targets[off[w] : off[w + 1]]):
                    break
                low[w] = len(tarjan)
                path.extend((w, off[w]))
            v, k, w = path[-2], path[-1], -1
            for k in range(k, off[v + 1]):
                u = targets[k]
                if not reach[u]:  # a settled successor does not reach a goal state
                    if not low[u]:
                        w, path[-1] = u, k + 1
                        break
                    low[v] = min(low[v], low[u])
            else:  # v is finished
                del path[-2:]
                h = low[v]
                if tarjan[h - 1] != v:  # v's SCC has its root below it on the path
                    low[path[-2]] = min(low[path[-2]], h)
                elif any(goal(g.state(s)) for s in tarjan[h - 1 :]):
                    break
                else:
                    for s in tarjan[h - 1 :]:
                        reach[s] = 2
                    del tarjan[h - 1 :]
                    if not path:
                        break
        for s in tarjan:  # empty unless the search ended on a goal state
            reach[s] = 1
    i = reach.find(2)
    return InevitabilityResult(True) if i < 0 else InevitabilityResult(False, g.path_to(i))


def label_nondeterminism_report(g: StateGraph) -> dict:
    """States offering several distinct labels (external choice): an out-degree above 1, as a state offers
    each label once.  Reported for information; label determinism itself is an assertable invariant."""
    multi = sum(map((1).__lt__, g.degrees()))
    return {"states_with_choice": multi, "states_total": g.state_count}
