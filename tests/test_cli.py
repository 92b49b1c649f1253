import json

import pytest

from mapmerge.cli import main
from mapmerge.events import to_json
from mapmerge.scenarios import builtin_scenarios, scenario_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_explore_n2_passes(capsys):
    code, out, _ = run(capsys, "explore", "--agents", "2")
    assert code == 0
    assert "verdict: pass" in out


def test_explore_json_report(capsys):
    code, out, _ = run(capsys, "explore", "--agents", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["state_count"] == 43
    assert doc["transition_count"] == 77
    assert doc["violations"] == []
    assert {c["name"] for c in doc["checks"]} == {
        "invariants",
        "deadlock-freedom",
        "divergence-freedom",
        "goal-inevitable",
    }


def test_explore_json_is_byte_stable(capsys):
    _, out1, _ = run(capsys, "explore", "--agents", "2", "--json")
    _, out2, _ = run(capsys, "explore", "--agents", "2", "--json", "--workers", "2")
    assert out1 == out2
    assert "duration" not in out1


def test_explore_timings_opt_in(capsys):
    _, out, _ = run(capsys, "explore", "--agents", "2", "--json", "--timings")
    doc = json.loads(out)
    assert "duration_ms" in doc
    assert all("duration_ms" in c for c in doc["checks"])


def test_explore_bounded_fails_incomplete(capsys):
    code, out, _ = run(capsys, "explore", "--agents", "3", "--max-states", "40", "--json")
    assert code == 1
    assert json.loads(out)["complete"] is False


def test_explore_depth_bounded_reports_no_deadlocks(capsys):
    # The unexpanded frontier of a bounded run is not a set of deadlocks.
    code, out, _ = run(capsys, "explore", "--agents", "3", "--max-depth", "4")
    assert code == 1
    assert "[pass] deadlock-freedom" in out
    assert "exploration incomplete" in out
    assert "verdict: fail" in out


def assert_one_line_usage_error(code, err):
    assert code == 2
    assert err.startswith("mapmerge: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_explore_zero_max_states_usage_error(capsys):
    code, _, err = run(capsys, "explore", "--agents", "2", "--max-states", "0")
    assert_one_line_usage_error(code, err)
    assert "bounds" in err


def test_workers_env_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("MAPMERGE_WORKERS", "x")
    code, _, err = run(capsys, "explore", "--agents", "2")
    assert_one_line_usage_error(code, err)
    assert "MAPMERGE_WORKERS" in err


def test_scenario_file_without_trace_usage_error(capsys, tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([{"name": "no-trace"}]))
    code, _, err = run(capsys, "scenarios", "--agents", "3", "--scenario-file", str(path))
    assert_one_line_usage_error(code, err)
    assert "'trace'" in err


def test_agents_out_of_bounds_usage_error(capsys):
    code, _, err = run(capsys, "explore", "--agents", "1")
    assert code == 2
    assert "agent count" in err


def test_scenarios_all_pass(capsys):
    code, out, _ = run(capsys, "scenarios", "--agents", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] == doc["total"] == 6


def test_scenarios_single_by_name(capsys):
    code, out, _ = run(capsys, "scenarios", "--agents", "3", "--name", "scenario2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 1 and doc["checks"][0]["name"] == "scenario2"


def test_scenarios_unknown_name(capsys):
    code, _, err = run(capsys, "scenarios", "--name", "nope")
    assert code == 2
    assert "unknown scenario" in err


def test_scenarios_universe_too_small(capsys):
    code, _, err = run(capsys, "scenarios", "--agents", "2")
    assert code == 2
    assert "too small" in err


def test_scenario_file_loaded(capsys, tmp_path):
    extra = dict(scenario_to_json(builtin_scenarios()[0]), name="copy-of-1")
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([extra]))
    code, out, _ = run(
        capsys, "scenarios", "--agents", "3", "--scenario-file", str(path), "--json"
    )
    assert code == 0
    assert json.loads(out)["total"] == 7


def test_trace_check_pass(capsys, tmp_path):
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps(to_json(e)) for e in builtin_scenarios()[0].trace]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "trace-check", "--agents", "3", "--json", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["trace_length"] == 9 and doc["witness"]


def test_trace_check_absent_trace_fails(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"type": "confirm_merge", "req_leader": "A2", "other_leader": "A1"}) + "\n")
    code, out, _ = run(capsys, "trace-check", "--agents", "3", "--json", str(path))
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_trace_check_parse_error_names_line(capsys, tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"type": "done", "leader": "A1"}\n{"type": "bogus"}\n')
    code, _, err = run(capsys, "trace-check", str(path))
    assert code == 2
    assert f"{path}:2:" in err


def test_trace_check_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "trace-check", str(tmp_path / "absent.jsonl"))
    assert code == 1
    assert "absent.jsonl" in err


def test_export_json_to_stdout(capsys):
    code, out, _ = run(capsys, "export", "--agents", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "mapmerge-graph/1"
    assert doc["state_count"] == 43


def test_export_dot_to_file(capsys, tmp_path):
    path = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "export", "--agents", "2", "--out", str(path))
    assert code == 0 and out == ""
    text = path.read_text()
    assert text.startswith("digraph mapmerge {")


def test_explore_dot_side_output(capsys, tmp_path):
    path = tmp_path / "explored.dot"
    code, _, _ = run(capsys, "explore", "--agents", "2", "--dot", str(path))
    assert code == 0
    assert path.read_text().count("->") == 77


def test_workers_env(capsys, monkeypatch):
    monkeypatch.setenv("MAPMERGE_WORKERS", "2")
    code, out, _ = run(capsys, "explore", "--agents", "2", "--json")
    assert code == 0
    assert json.loads(out)["state_count"] == 43
