"""Acceptance gate: twelve end-to-end checks, one per release criterion.

Each test prints a single `[criterion N] ...: PASS` line (visible under
pytest -v with -s, and in the captured output otherwise) so the gate can be
read off the log directly.
"""

import itertools
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from mapmerge.coordmap import (
    GridMap,
    IDENTITY,
    MergeConflictError,
    Offset,
    compose,
    invert,
    merge_grids,
    transform,
)
from mapmerge.events import (
    ConfirmMerge,
    MergeCancelled,
    MergeConfirmed,
    RequestMerge,
    is_internal,
)
from mapmerge.explorer import (
    TraceQuery,
    check_inevitable,
    explore,
    find_deadlocks,
    find_hidden_divergence,
    has_trace,
)
from mapmerge.ids import AgentId
from mapmerge.scenarios import builtin_scenarios, check_scenario
from mapmerge.world import all_maps_merged, apply_event, enabled_events, initial_config, is_terminal

from graph_reference import states, transitions

A1, A2, A3 = AgentId(1), AgentId(2), AgentId(3)


def report(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] {text}: PASS")


def test_criterion_01_scenario_regression_n3():
    for s in builtin_scenarios():
        t0 = time.perf_counter()
        r = check_scenario(s, initial_config(3))
        dt = time.perf_counter() - t0
        assert r.verdict, f"{s.name} failed at n=3"
        assert dt < 5.0, f"{s.name} took {dt:.1f}s at n=3 (budget 5s)"
    report(1, "all six scenarios hold at n=3, each under 5s")


def test_criterion_02_scenario_scaling_n4():
    t0 = time.perf_counter()
    for s in builtin_scenarios():
        assert check_scenario(s, initial_config(4)).verdict, f"{s.name} failed at n=4"
    total = time.perf_counter() - t0
    assert total < 600.0, f"n=4 scenario sweep took {total:.0f}s (budget 600s)"
    report(2, f"all six scenarios hold at n=4 in {total:.1f}s (budget 600s)")


def test_criterion_03_deadlock_freedom(graph_n2, graph_n3):
    for n, g in ((2, graph_n2), (3, graph_n3)):
        assert g.complete
        dead = find_deadlocks(g)
        assert dead == [], f"{len(dead)} deadlocks at n={n}"
    report(3, "no non-terminal deadlock states at n=2 or n=3")


def test_criterion_04_divergence_freedom(graph_n2, graph_n3):
    for n, g in ((2, graph_n2), (3, graph_n3)):
        w = find_hidden_divergence(g, is_internal)
        assert w is None, f"hidden divergence at n={n}"
    report(4, "no internal-event cycles at n=2 or n=3")


def test_criterion_05_priority_invariant(graph_n3):
    for _, e, _ in transitions(graph_n3):
        if isinstance(e, ConfirmMerge):
            assert e.req_leader.index < e.other_leader.index, f"priority violated by {e}"
    bad = ConfirmMerge(req_leader=A2, other_leader=A1)
    r = has_trace(initial_config(3), TraceQuery((bad,), frozenset({bad})))
    assert not r.found
    report(5, "every confirm_merge is driven by the lower-indexed leader (n=3)")


def test_criterion_06_active_flag_invariant(graph_n3):
    g = graph_n3
    for i, e, _ in transitions(g):
        if isinstance(e, MergeConfirmed):
            assert g.state(i).leader(e.other_leader).active, f"inactive leader confirmed: {e}"
    # Every confirm_merge aimed at an inactive (or busy) leader is answered:
    # the owed cancellation stays enabled until taken, and no state leaves a
    # pending cancellation unanswerable.
    for i, c in enumerate(states(g)):
        enabled = set(enabled_events(c))
        for l in c.leaders:
            for rq in l.pending_cancels:
                assert MergeCancelled(rq, l.id) in enabled, (
                    f"state {i}: {l.id} cannot answer {rq}"
                )
    report(6, "merge_confirmed only from active leaders; cancels always answered (n=3)")


def test_criterion_07_goal_inevitability(graph_n2, graph_n3):
    for n, g in ((2, graph_n2), (3, graph_n3)):
        r = check_inevitable(g, all_maps_merged)
        assert r.value is True, f"goal avoidable at n={n}"
    report(7, "a fully merged map stays reachable from every state (n=2, n=3)")


def test_criterion_08_quiescent_partition(graph_n3):
    from mapmerge.world import is_quiescent, quiescent_partition_violation

    quiescent = 0
    for c in states(graph_n3):
        if is_quiescent(c):
            quiescent += 1
            assert quiescent_partition_violation(c) is None
    assert quiescent > 1
    report(8, f"partition invariant holds in all {quiescent} quiescent states (n=3)")


# ---------------------------------------------------------------------------
# Criterion 9: independent brute-force oracle for has_trace.
#
# The oracle never calls has_trace: it enumerates executions directly by
# depth-first search over apply_event, collecting every projection of
# length <= max_len over the reduced alphabet.
# ---------------------------------------------------------------------------


def _oracle_traces(c0, alphabet, max_len):
    found = set()
    seen = set()
    stack = [(c0, ())]
    while stack:
        c, proj = stack.pop()
        if (c, proj) in seen:
            continue
        seen.add((c, proj))
        found.add(proj)
        for e in enabled_events(c):
            if e in alphabet:
                if len(proj) < max_len:
                    stack.append((apply_event(c, e), proj + (e,)))
            else:
                stack.append((apply_event(c, e), proj))
    return found


def test_criterion_09_trace_oracle_equivalence():
    c0 = initial_config(2)
    alphabet = frozenset(
        {
            RequestMerge(A1, A1, frozenset({A2})),
            RequestMerge(A2, A2, frozenset({A1})),
            ConfirmMerge(A1, A2),
            MergeCancelled(A1, A2),
        }
    )
    max_len = 6
    truth = _oracle_traces(c0, alphabet, max_len)
    checked = agreed = 0
    for k in range(max_len + 1):
        for cand in itertools.product(sorted(alphabet, key=str), repeat=k):
            expected = cand in truth
            got = has_trace(c0, TraceQuery(cand, alphabet)).found
            checked += 1
            assert got == expected, f"disagreement on {cand}: oracle={expected}"
            agreed += 1
    assert checked == sum(len(alphabet) ** k for k in range(max_len + 1))
    report(9, f"has_trace agrees with the brute-force oracle on {agreed} traces (n=2)")


def test_criterion_10_mutation_sensitivity():
    # Dropping the priority guard must break the criterion-5 invariant.
    g = explore(initial_config(3, priority_guard=False), checks=[])
    bad_confirms = [
        e
        for _, e, _ in transitions(g)
        if isinstance(e, ConfirmMerge) and e.req_leader.index >= e.other_leader.index
    ]
    assert bad_confirms, "priority mutant went undetected"
    # Dropping the active-flag guard must break the criterion-6 invariant.
    g = explore(initial_config(3, active_guard=False))
    names = {v.check for v in g.violations}
    assert "req2-cancel-answered" in names, "active-flag mutant went undetected"
    report(10, "both guard mutations are caught by the invariant suite (n=3)")


def test_criterion_11_determinism(src_env):
    # Fresh interpreters with different string hashes: the output may not
    # depend on set or dict iteration order.
    outs = []
    for seed in ("0", "12345"):
        argv = [sys.executable, "-m", "mapmerge.cli", "explore", "--agents", "3", "--json"]
        proc = subprocess.run(argv, env=dict(src_env, PYTHONHASHSEED=seed), capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["verdict"] == "pass"
    report(
        11,
        f"explore --agents 3 --json is byte-identical across hash seeds "
        f"({doc['state_count']} states)",
    )


coords = st.integers(min_value=-40, max_value=40)
offsets_s = st.builds(Offset, coords, coords)
points_s = st.tuples(coords, coords)
cells_s = st.dictionaries(points_s, st.sampled_from(["a", "b", "c"]), max_size=8)


def test_criterion_12_coordmap_properties():
    rounds = 1000

    @settings(max_examples=rounds, deadline=None, database=None)
    @given(points_s, offsets_s, offsets_s)
    def algebra(p, a, b):
        assert transform(transform(p, a), invert(a)) == p
        assert compose(a, invert(a)) == IDENTITY == compose(invert(a), a)
        assert compose(compose(a, b), invert(b)) == a
        assert transform(transform(p, a), b) == transform(p, compose(a, b))

    @settings(max_examples=rounds, deadline=None, database=None)
    @given(cells_s, cells_s, offsets_s)
    def merging(ac, bc, o):
        a, b = GridMap(ac, A1), GridMap(bc, A2)
        try:
            ab = merge_grids(a, b, o)
        except MergeConflictError:
            with pytest.raises(MergeConflictError):
                merge_grids(b, a, invert(o))
            return
        ba = merge_grids(b, a, invert(o))
        assert ba.shifted(o).cells == ab.cells
        assert all(ab.cells[p] == v for p, v in ac.items())
        assert all(ab.cells[transform(p, o)] == v for p, v in bc.items())

    algebra()
    merging()
    report(12, f"offset algebra and merge consistency hold on {rounds} random instances")
