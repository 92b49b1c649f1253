import dataclasses
import io
import tracemalloc
from collections import Counter
from contextlib import contextmanager, nullcontext

import pytest

from mapmerge import processes
from mapmerge.events import (
    EVENT_TYPES,
    BeginMerge,
    ConfirmMerge,
    Done,
    MergeCompleted,
    MergeConfirmed,
    MergeMaps,
    RequestMerge,
    Terminate,
    is_internal,
    label,
)
from mapmerge.export import export_graph, to_dot, to_json_graph
from mapmerge.explorer import (
    Check,
    TraceQuery,
    _monotone_violation,
    check_inevitable,
    default_checks,
    explore,
    find_deadlocks,
    find_hidden_divergence,
    has_trace,
    label_nondeterminism_report,
)
from mapmerge.ids import AgentId
from mapmerge.processes import AwaitCompletion, BeingMerged, Considering, DonePhase, Terminated, Terminating
from mapmerge.world import (
    Configuration,
    all_maps_merged,
    apply_event,
    enabled_events,
    initial_config,
    is_quiescent,
    is_terminal,
)

import graph_reference
from conftest import (
    ACTIVE_MUTANT,
    DEMOTE_ON_MERGE_MUTANT,
    OLD_AGENT_GUARD_MUTANT,
    PRIORITY_MUTANT,
    REPLACE_SET_MUTANT,
    mutant,
    variant,
)
from graph_reference import edges, monotone_violation, states, transitions

A1, A2, A3 = AgentId(1), AgentId(2), AgentId(3)


def test_n2_graph_shape(graph_n2):
    g = graph_n2
    assert g.complete
    assert g.state_count == 43
    assert g.transition_count == 77
    assert g.violations == []


def test_n2_single_terminal_state(graph_n2):
    terminals = [c for c in states(graph_n2) if is_terminal(c)]
    assert len(terminals) == 1
    (t,) = terminals
    assert t.leader(A1).agent_set == frozenset({A1, A2})
    assert not t.leader(A2).active


def test_n3_graph_clean(graph_n3):
    g = graph_n3
    assert g.complete
    assert g.violations == []
    assert len([c for c in states(g) if is_terminal(c)]) == 1


def test_states_deduplicated(graph_n2):
    assert len(set(states(graph_n2))) == graph_n2.state_count


def test_witness_paths_replay(graph_n2):
    g = graph_n2
    for idx in range(0, g.state_count, 7):
        path = g.path_to(idx)
        c = path[0]
        assert c == g.initial
        for k in range(1, len(path), 2):
            c = apply_event(c, path[k])
            assert c == path[k + 1]
        assert c == g.state(idx)


def test_bounds_leave_graph_incomplete():
    g = explore(initial_config(3), max_states=50)
    assert not g.complete
    assert g.state_count <= 50
    g = explore(initial_config(3), max_depth=2)
    assert not g.complete


def test_truncated_states_are_not_deadlocks():
    c0 = initial_config(3)
    g = explore(c0, max_depth=4, checks=[])
    assert g.truncated and not g.complete
    assert find_deadlocks(g) == []


def test_bad_bounds_rejected():
    with pytest.raises(ValueError):
        explore(initial_config(2), max_states=0)
    with pytest.raises(ValueError):
        explore(initial_config(2), max_depth=-1)


def test_each_path_completes_at_most_one_merge_at_n2(graph_n2):
    # At n=2 a path can contain at most one merge_completed: the active
    # leader count starts at 2 and each completion demotes exactly one.
    g = graph_n2
    counts = [
        sum(isinstance(path[k], MergeCompleted) for k in range(1, len(path), 2))
        for path in (g.path_to(i) for i in range(g.state_count))
    ]
    assert max(counts) == 1
    # Cross-check against the active-leader count in each state.
    for c in states(g):
        assert sum(l.active for l in c.leaders) in (1, 2)


def test_empty_trace_always_found():
    r = has_trace(initial_config(2), TraceQuery(()))
    assert r.found and r.witness == []


def test_has_trace_witness_projects_correctly(graph_n3):
    trace = (
        RequestMerge(A1, A1, frozenset({A2})),
        ConfirmMerge(A1, A2),
    )
    alphabet = frozenset(trace)
    r = has_trace(initial_config(3), TraceQuery(trace, alphabet))
    assert r.found
    # Projection onto the visible alphabet is exactly the trace.
    assert tuple(e for e in r.witness if e in alphabet) == trace
    # Witness must replay from the initial state.
    c = initial_config(3)
    for e in r.witness:
        c = apply_event(c, e)


def test_has_trace_priority_violation_absent():
    bad = ConfirmMerge(req_leader=A2, other_leader=A1)
    r = has_trace(initial_config(3), TraceQuery((bad,), frozenset({bad})))
    assert not r.found and r.complete


def test_has_trace_respects_alphabet():
    # With confirm_merge hidden, an execution containing it still matches
    # the empty-after-hiding projection of a merge_completed-only trace.
    e = MergeCompleted(A1, A2, frozenset({A1, A2}))
    r = has_trace(initial_config(2), TraceQuery((e,), frozenset({e})))
    assert r.found


def test_trace_query_rejects_hidden_target():
    e = ConfirmMerge(A1, A2)
    with pytest.raises(ValueError):
        TraceQuery((e,), frozenset())
    # Without an alphabet, every event but the internal begin_merge is visible.
    q = TraceQuery(())
    assert q.visible(ConfirmMerge(A1, A2)) and not q.visible(BeginMerge(A1))


def test_no_deadlocks(graph_n2, graph_n3):
    assert find_deadlocks(graph_n2) == []
    assert find_deadlocks(graph_n3) == []


def test_no_hidden_divergence(graph_n2, graph_n3):
    assert find_hidden_divergence(graph_n2, is_internal) is None
    assert find_hidden_divergence(graph_n3, is_internal) is None


def test_divergence_found_when_everything_hidden(graph_n2):
    # Hiding the whole alphabet must expose a cycle somewhere (a refused
    # merge attempt loops back); sanity-checks the cycle detector itself.
    w = find_hidden_divergence(graph_n2, lambda e: True)
    assert w is not None
    # The witness prefix replays and the cycle closes.
    c = w.prefix[0]
    for k in range(1, len(w.prefix), 2):
        c = apply_event(c, w.prefix[k])
    entry = c
    for e in w.cycle:
        c = apply_event(c, e)
    assert c == entry


def test_goal_inevitable(graph_n2, graph_n3):
    assert check_inevitable(graph_n2, all_maps_merged).value is True
    assert check_inevitable(graph_n3, all_maps_merged).value is True


# The merge-free cycle that goal-inevitable (AG EF) allows: A1's
# confirm_merge always meets a busy A2, so the two leaders can race forever.
MERGE_FREE_CYCLE = (
    "confirm_merge.A1.A2, merge_cancelled.A1.A2, remove_reasoning_about.A1.A2, request_merge.A1.A1.{A2},"
    " begin_merge.A1, request_leader.A1.A2, reply_leader.A2.A1.A2"
)


@pytest.mark.parametrize("graph, prefix", [("graph_n2", 8), ("graph_n3", 12)])
def test_goal_inevitable_allows_a_merge_free_cycle(request, graph, prefix):
    # AG EF holds, so every run that is strongly fair among transitions
    # merges, yet a run may never merge: hiding all but merge_maps diverges.
    g = request.getfixturevalue(graph)
    assert check_inevitable(g, all_maps_merged).value is True
    w = find_hidden_divergence(g, lambda e: not isinstance(e, MergeMaps))
    assert ", ".join(map(label, w.cycle)) == MERGE_FREE_CYCLE
    assert len(w.prefix[1::2]) == prefix
    c = w.prefix[-1]
    for e in w.cycle:
        c = apply_event(c, e)
    assert c == w.prefix[-1] and not all_maps_merged(c)


def test_inevitability_counterexample_when_goal_unreachable(graph_n2):
    r = check_inevitable(graph_n2, lambda c: False)
    assert r.value is False
    assert r.counterexample == [graph_n2.initial]


def test_inevitability_none_on_incomplete_graph():
    g = explore(initial_config(3), max_states=30, checks=[])
    r = check_inevitable(g, lambda c: True)
    assert r.value is None and r.counterexample is None


def test_choice_report(graph_n2):
    rep = label_nondeterminism_report(graph_n2)
    assert rep["states_total"] == graph_n2.state_count
    assert 0 < rep["states_with_choice"] < rep["states_total"]


@pytest.mark.parametrize("max_states", [None, 500], ids=["complete", "truncated"])
def test_choice_report_matches_dict_of_sets(graph_n3, max_states):
    g = graph_n3 if max_states is None else explore(initial_config(3), max_states=max_states)
    assert g.complete == (max_states is None)
    assert label_nondeterminism_report(g) == graph_reference.choice_report(g)


@pytest.mark.parametrize(
    "spec",
    [PRIORITY_MUTANT, ACTIVE_MUTANT, DEMOTE_ON_MERGE_MUTANT, REPLACE_SET_MUTANT],
    ids=["priority_guard", "active_guard", "demote_on_merge", "replace_set"],
)
def test_checks_on_event_types_find_what_checks_on_all_find(spec):
    # Restricting each check to where its gate admits (a transition check to
    # the event types it inspects, or to labels whose steps move a leader's
    # pair) must not change which violations explore reports, nor their
    # witnesses.
    checks = default_checks()
    assert all(k.gate for k in checks)
    with variant(3, spec) as c0:
        typed = explore(c0, checks=checks).violations
        untyped = explore(c0, checks=[Check(k.name, k.kind, k.fn) for k in checks]).violations
    assert typed
    assert [(v.check, v.message, v.witness) for v in typed] == [
        (v.check, v.message, v.witness) for v in untyped
    ]


def test_gates_call_each_check_only_where_it_can_fire():
    # Counted through checks that carry the default gates: without them every
    # state check runs at all 1,879 states and active-monotone at all 5,456
    # transitions.
    calls = Counter()

    def counted(k):
        def fn(*args):
            calls[k.name] += 1
            return k.fn(*args)

        return Check(k.name, k.kind, fn, k.gate)

    g = explore(initial_config(3), checks=[counted(k) for k in default_checks()])
    assert (g.state_count, g.transition_count, g.violations) == (1879, 5456, [])
    cs = states(g)
    pairs = [[(l.active, l.agent_set) for l in c.leaders] for c in cs]
    moved = sum(isinstance(e, MergeCompleted) or pairs[i] != pairs[j] for i, e, j in transitions(g))
    progressing = (Considering, BeingMerged, AwaitCompletion)
    owes = lambda l: l.pending_cancels or not l.active and isinstance(l.phase, progressing)
    owing = sum(any(map(owes, c.leaders)) for c in cs)
    assert calls["local-state"] == 0
    assert calls["active-monotone"] == moved <= 76
    assert calls["quiescent-partition"] == sum(map(is_quiescent, cs)) < g.state_count
    assert calls["req2-cancel-answered"] == owing < g.state_count


def test_transition_checks_see_shift_flags_flip_while_the_tables_fill():
    # On cold tables a passive step can flip a label's shift flag after
    # transitions on it were returned with the flag unset.  A check gated on
    # the flag alone must then run on every transition that moves a leader's
    # (active, agent_set), so explore must see each flip as it happens.
    checked = []
    check = Check("shift", "transition", lambda m, *t: checked.append(t), gate=lambda t, shift: shift)
    g = explore(initial_config(3), checks=[check])  # each search fills its own tables from cold
    cs = states(g)
    index = {g.model.encode(c): i for i, c in enumerate(cs)}
    checked = {(index[g.model.encode(g.model.decode(code))], ev, index[key2]) for code, ev, key2 in checked}
    pairs = [[(l.active, l.agent_set) for l in c.leaders] for c in cs]
    moved = {(i, ev, j) for i, ev, j in edges(g) if pairs[i] != pairs[j]}
    assert moved and moved <= checked


def test_req2_confirm_active_is_vacuous_on_the_active_guard_mutant():
    # Without the REQ2 guard demoted leaders reach Considering, but none of
    # them takes part in a merge_confirmed: the label it offers carries its
    # empty agent set, which the requesting leader refuses.
    with variant(3, ACTIVE_MUTANT) as c0:
        g = explore(c0, checks=[])
    m, cs = g.model, states(g)
    considering = [
        (i, l) for i, c in enumerate(cs) for l in c.leaders if not l.active and isinstance(l.phase, Considering)
    ]
    assert (g.state_count, len({i for i, _ in considering})) == (1905, 26)
    for i, l in considering:
        e = MergeConfirmed(l.phase.req_leader, l.id, frozenset())
        assert e in dict(processes.leader_moves(l, m.params))
        assert processes.leader_accept(cs[i].leader(e.req_leader), e) is None
    confirmed = [(i, e) for i, e, _ in transitions(g) if isinstance(e, MergeConfirmed)]
    assert len(confirmed) == 39
    assert all(cs[i].leader(e.other_leader).active for i, e in confirmed)


# The leader phase classes: the dataclasses that processes.py defines.
LEADER_PHASES = {
    c
    for c in vars(processes).values()
    if isinstance(c, type) and dataclasses.is_dataclass(c) and c.__module__ == processes.__name__
}


def reached(g):
    """The event types of `g`'s transitions and the leader phase classes of its
    states, read from its rows: `Model.locals` also holds unreached move targets."""
    n, local = g.initial.params.n, g.model.locals
    phases = {type(local[x].phase) for k, x in enumerate(g.rows) if k % (2 * n) >= n}
    return {type(g.model.labels[ev]) for ev in set(g.events)}, phases


def test_every_event_type_and_leader_phase_is_reached_at_n3(graph_n3):
    assert (len(EVENT_TYPES), len(LEADER_PHASES)) == (14, 15)
    assert reached(graph_n3) == (set(EVENT_TYPES.values()), LEADER_PHASES)
    # Without the harness exactly its events and phases go.
    events, phases = reached(explore(initial_config(3, harness=False), checks=[]))
    assert events == set(EVENT_TYPES.values()) - {Done, Terminate}
    assert phases == LEADER_PHASES - {DonePhase, Terminating, Terminated}


@pytest.mark.parametrize("params", [{}, PRIORITY_MUTANT, ACTIVE_MUTANT])
def test_monotone_check_same_on_shared_and_fresh_states(params):
    # Graph states share unchanged local states; `fresh` shares none.  Run
    # forwards and backwards, so that the check also fires.  The int-level
    # check reads the same keys either way and agrees with the reference.
    with variant(3, params) as c0:
        g = explore(c0, checks=[])
        m = g.model
        messages = set()
        for i, e, j in transitions(g):
            src, dst = g.state(i), g.state(j)
            after = apply_event(src, e)
            fresh = Configuration(
                tuple(a._replace() for a in after.agents), tuple(l._replace() for l in after.leaders), after.params
            )
            assert fresh == dst and not any(x is y for x, y in zip(fresh.leaders, src.leaders))
            assert monotone_violation(src, e, dst) == monotone_violation(src, e, fresh)
            back = monotone_violation(dst, e, src)
            assert back == monotone_violation(fresh, e, src)
            ev, key, key2 = m.labels.index(e), m.encode(src), m.encode(fresh)
            assert _monotone_violation(m, m.code(key), ev, key2) == monotone_violation(src, e, dst)
            assert _monotone_violation(m, m.code(key2), ev, key) == back
            messages.add(back)
        assert None in messages and len(messages) > 1


def render(write, g) -> str:
    out = io.StringIO()
    write(g, out)
    return out.getvalue()


def test_export_dot_is_stable(graph_n2):
    d1 = render(to_dot, graph_n2)
    d2 = render(lambda g, out: export_graph(g, "dot", out), graph_n2)
    assert d1 == d2
    assert d1.startswith("digraph mapmerge {")
    assert d1.rstrip().endswith("}")
    assert d1.count("->") == graph_n2.transition_count


def test_export_json_is_stable_and_parses(graph_n2):
    import json

    j1 = render(to_json_graph, graph_n2)
    assert j1 == render(lambda g, out: export_graph(g, "json", out), graph_n2)
    doc = json.loads(j1)
    assert doc["schema"] == "mapmerge-graph/1"
    assert doc["state_count"] == graph_n2.state_count
    assert len(doc["transitions"]) == graph_n2.transition_count
    assert doc["states"][0]["initial"] is True
    assert sum(s["terminal"] for s in doc["states"]) == 1


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export_graph(explore(initial_config(2), checks=[]), "svg", io.StringIO())


def n3_msm2():
    return explore(initial_config(3, merge_set_max=2), checks=[])


# Each graph as (the mutant it is built and checked under, or None; how to build it).
DIFFERENTIAL_GRAPHS = {
    "n3-msm2": (None, n3_msm2),
    "n3-msm2-old-agent-guard": (OLD_AGENT_GUARD_MUTANT, n3_msm2),  # the one with a deadlock
    "n2": (None, lambda: explore(initial_config(2), checks=[])),
    "n3-depth4": (None, lambda: explore(initial_config(3), max_depth=4, checks=[])),
}


@contextmanager
def differential_graph(name: str):
    """The graph `name`, with its mutant installed for the block, so that its witnesses replay."""
    spec, make = DIFFERENTIAL_GRAPHS[name]
    with mutant(*spec) if spec else nullcontext():
        yield make()


def replay(path) -> None:
    c = path[0]
    for k in range(1, len(path), 2):
        c = apply_event(c, path[k])
        assert c == path[k + 1]


@pytest.mark.parametrize("name", DIFFERENTIAL_GRAPHS)
def test_array_post_analyses_match_dict_references(name):
    # The same results, witnesses included, as the dict-based versions.
    with differential_graph(name) as g:
        dead = find_deadlocks(g)
        assert dead == graph_reference.find_deadlocks(g)
        for path in dead:
            replay(path)
        requests = frozenset(e for _, e, _ in transitions(g) if isinstance(e, RequestMerge))
        for hidden in (is_internal, lambda e: True, requests.__contains__):
            div = find_hidden_divergence(g, hidden)
            ref = graph_reference.find_hidden_divergence(g, hidden)
            assert (div is None) == (ref is None)
            if div is not None:
                assert (div.prefix, div.cycle) == (ref.prefix, ref.cycle)
                replay(div.prefix)
                c = div.prefix[-1]
                for e in div.cycle:
                    c = apply_event(c, e)
                assert c == div.prefix[-1]
        for goal in (all_maps_merged, is_terminal, lambda c: False):
            inev, ref = check_inevitable(g, goal), graph_reference.check_inevitable(g, goal)
            assert (inev.value, inev.counterexample) == (ref.value, ref.counterexample)
            if inev.counterexample is not None:
                replay(inev.counterexample)
        assert label_nondeterminism_report(g) == graph_reference.choice_report(g)


def test_differential_graphs_each_find_something():
    with differential_graph("n2") as g:
        assert find_hidden_divergence(g, lambda e: True) is not None
    with differential_graph("n3-depth4") as g:
        assert g.truncated and check_inevitable(g, all_maps_merged).value is None
    with differential_graph("n3-msm2") as g:
        assert check_inevitable(g, lambda c: False).value is False
    with differential_graph("n3-msm2-old-agent-guard") as g:
        assert len(find_deadlocks(g)) == 1


@pytest.mark.parametrize(
    "params",
    [{}, PRIORITY_MUTANT, ACTIVE_MUTANT, {"merge_set_max": 2}, DEMOTE_ON_MERGE_MUTANT, REPLACE_SET_MUTANT],
    ids=["default", "priority_guard=False", "active_guard=False", "merge_set_max=2", "demote_on_merge", "replace_set"],
)
def test_int_checks_match_configuration_references(params):
    # The int-level default checks report what the Configuration-level
    # references report at every state and transition, witnesses included.
    with variant(3, params) as c0:
        got = [(v.check, v.message, v.witness) for v in explore(c0).violations]
        ref = [
            (v.check, v.message, v.witness) for v in explore(c0, checks=graph_reference.reference_checks()).violations
        ]
        assert got == ref
        if isinstance(params, tuple):
            assert got  # the mutant is caught, so the comparison is not vacuous
        for _, _, witness in got:
            replay(witness)


def test_bytes_per_state_at_n3():
    # Each stored state is a packed code, a row of local ints, its parent and
    # about three transitions of two ints each; no decoded Configuration.
    c0 = initial_config(3)
    tracemalloc.start()
    try:
        g = explore(c0, checks=[])
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained / g.state_count <= 250


def test_explore_peak_bytes_per_state_at_n3_msm2():
    # The search holds the graph's arrays, the model's tables, the visited
    # table's three ints per state and the keys of two layers: 106 B per
    # state here (75 at n=4), where one dict of every key peaked at 177 (180).
    # n=4 takes 20 s under tracemalloc.
    tracemalloc.start()
    try:
        g = explore(initial_config(3, merge_set_max=2), checks=[])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.state_count == 8929
    assert peak / g.state_count < 130
