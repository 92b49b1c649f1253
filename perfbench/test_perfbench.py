"""Tests of the benchmark itself: seeded inputs, expected query answers at
n=3, transparent tracing wrappers, and the metric list in BENCHMARK.json.

    python3 -m pytest perfbench
"""

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import mapmerge.cli  # noqa: E402
import mapmerge.processes  # noqa: E402
import mapmerge.world  # noqa: E402
from mapmerge.events import label  # noqa: E402
from mapmerge.explorer import TraceQuery, has_trace  # noqa: E402
from mapmerge.world import initial_config  # noqa: E402
from tracer import Tracer, installed, layer_metrics  # noqa: E402
from workloads import confirm_alphabet, negative_query, positive_query, witness_projects_to  # noqa: E402

N = 3


@pytest.mark.parametrize("confirms", [1, 3])
def test_positive_query_is_deterministic_per_seed(confirms):
    queries = [positive_query(seed, confirms, N) for seed in range(1, 6)]
    assert queries == [positive_query(seed, confirms, N) for seed in range(1, 6)]
    assert len(set(queries)) > 1
    assert all(len(q) == confirms for q in queries)


def test_negative_query_is_absent():
    result = has_trace(initial_config(N), TraceQuery(negative_query(), confirm_alphabet(N)))
    assert not result.found and result.complete


@pytest.mark.parametrize("seed, confirms", [(1, 1), (2, 1), (1, 3), (2, 3), (3, 3)])
def test_positive_query_is_found_and_its_witness_replays(seed, confirms):
    query, alphabet = positive_query(seed, confirms, N), confirm_alphabet(N)
    result = has_trace(initial_config(N), TraceQuery(query, alphabet))
    assert result.found
    labels = [label(e) for e in result.witness]
    assert witness_projects_to(labels, query, alphabet, N)
    assert not witness_projects_to(labels, query[:-1], alphabet, N)
    assert not witness_projects_to(["done.A1"] + labels, query, alphabet, N)


def _traced(argv):
    out = io.StringIO()
    with installed(Tracer("test")) as tracer, contextlib.redirect_stdout(out):
        code = mapmerge.cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16], layer_metrics([tracer.dump()])


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["explore", "--agents", "3", "--json"], "5a4d12dcb4d14f06"),
        (["export", "--agents", "3", "--format", "json"], "f1f05c70d6d503ce"),
    ],
)
def test_tracing_leaves_outputs_unchanged(argv, golden):
    code, digest, _ = _traced(argv)
    assert (code, digest) == (0, golden)
    assert mapmerge.world.agent_step is mapmerge.processes.agent_step


def test_layer_counts_at_n3():
    _, _, m = _traced(["explore", "--agents", "3", "--json"])
    transitions = 5456
    assert m["world.is_enabled.calls"] == 6254
    assert m["world.enable_ratio"] == pytest.approx(transitions / 6254)
    assert m["ids.universe.calls"] / transitions == pytest.approx(2.49, abs=0.01)
    assert m["explorer.dedup_hit_ratio"] == pytest.approx(1 - (1879 - 1) / transitions)
    assert m["world.steps_per_transition"] > 3
    assert m["explorer.checks.state_s"] > 0 and m["explorer.check_inevitable_s"] > 0
    assert m["export.to_json_graph_s"] == 0 and m["explorer.has_trace_s"] == 0


def test_benchmark_json_names_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, _, m = _traced(["scenarios", "--agents", "3", "--json"])
    assert {x["name"] for x in spec["per_layer"]} == set(m) | {"trace.wall_s"}
    assert m["explorer.has_trace_s"] > 0 and m["scenarios.check_scenario_s"] > 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace-n4", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
