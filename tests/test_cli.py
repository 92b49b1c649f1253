import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from mapmerge import cli, world
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
    _, out2, _ = run(capsys, "explore", "--agents", "2", "--json")
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


def test_too_many_local_states_usage_error(capsys, monkeypatch):
    # A key holds each local int in 16 bits: past world.LOCALS_MAX locals
    # one would carry into the next slot, so the model refuses to grow.
    monkeypatch.setattr(world, "LOCALS_MAX", 50)
    world.model.cache_clear()
    try:
        code, _, err = run(capsys, "explore", "--agents", "3", "--json")
    finally:
        world.model.cache_clear()  # drop the half-filled model
    assert_one_line_usage_error(code, err)
    assert "more than 50 local states" in err


def test_explore_zero_max_states_usage_error(capsys):
    code, _, err = run(capsys, "explore", "--agents", "2", "--max-states", "0")
    assert_one_line_usage_error(code, err)
    assert "bounds" in err


@pytest.mark.parametrize("bound", ["0", "-3"])
@pytest.mark.parametrize("command", ["explore", "export", "trace-check"])
def test_nonpositive_max_states_usage_error(capsys, tmp_path, command, bound):
    argv = [command, "--agents", "2", "--max-states", bound]
    if command == "trace-check":
        (tmp_path / "trace.jsonl").write_text(json.dumps({"type": "done", "leader": "A1"}) + "\n")
        argv.append(str(tmp_path / "trace.jsonl"))
    code, _, err = run(capsys, *argv)
    assert_one_line_usage_error(code, err)
    assert "bounds" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("scenarios", "--agents", "3", "--max-depth", "2"),
        ("scenarios", "--agents", "3", "--max-states", "10"),
        ("trace-check", "--agents", "3", "--max-depth", "2", "trace.jsonl"),
        ("export", "--agents", "2", "--json"),
        ("export", "--agents", "2", "--timings"),
    ],
)
def test_flag_the_command_does_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_scenario_file_without_trace_usage_error(capsys, tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([{"name": "no-trace"}]))
    code, _, err = run(capsys, "scenarios", "--agents", "3", "--scenario-file", str(path))
    assert_one_line_usage_error(code, err)
    assert "'trace'" in err


def test_scenario_file_wrong_field_type_usage_error(capsys, tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([{"name": "int-trace", "trace": 5}]))
    code, _, err = run(capsys, "scenarios", "--agents", "3", "--scenario-file", str(path))
    assert_one_line_usage_error(code, err)
    assert "parse error" in err


@pytest.mark.parametrize(
    "field, value",
    [("requirement", [1]), ("requirement", "REQ9"), ("description", 5)],
    ids=["requirement-list", "requirement-unknown", "description-int"],
)
def test_scenario_file_bad_requirement_or_description_usage_error(capsys, tmp_path, field, value):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([{"name": "x", "trace": [], field: value}]))
    code, _, err = run(capsys, "scenarios", "--agents", "3", "--scenario-file", str(path))
    assert_one_line_usage_error(code, err)
    assert err.startswith(f"mapmerge: parse error: {path}: ")
    assert f"'{field}'" in err


@pytest.mark.parametrize(
    "scenario, message",
    [
        (
            {"name": "empty", "trace": [{"type": "request_merge", "agent": "A1", "leader": "A1", "merge_set": []}]},
            "empty merge_set",
        ),
        (
            {
                "name": "far",
                "trace": [{"type": "confirm_merge", "req_leader": "A1", "other_leader": "A2"}],
                "alphabet": [
                    {"type": "confirm_merge", "req_leader": "A1", "other_leader": "A2"},
                    {"type": "confirm_merge", "req_leader": "A9", "other_leader": "A1"},
                ],
            },
            "A9, outside universe of size 3",
        ),
    ],
    ids=["empty-merge-set", "alphabet-outside-universe"],
)
def test_scenario_file_event_outside_model_usage_error(capsys, tmp_path, scenario, message):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([scenario]))
    code, _, err = run(capsys, "scenarios", "--agents", "3", "--scenario-file", str(path))
    assert_one_line_usage_error(code, err)
    assert err.startswith(f"mapmerge: parse error: {path}: ")
    assert message in err


@pytest.mark.parametrize(
    "trace, alphabet, message",
    [
        ({"type": "done", "leader": "A7"}, None, "outside universe of size 3"),
        ({"type": "request_merge", "agent": "A1", "leader": "A1", "merge_set": []}, None, "empty merge_set"),
        ({"type": []}, None, "string 'type'"),
        ({"type": "done", "leader": "A1"}, {"type": "done", "leader": "A4"}, "outside universe of size 3"),
        ({"type": "done", "leader": "A1"}, {"type": "done", "leader": "A2"}, "not in the visible alphabet"),
    ],
    ids=["outside-universe", "empty-merge-set", "type-not-string", "alphabet-outside-universe", "outside-alphabet"],
)
def test_trace_check_event_outside_model_usage_error(capsys, tmp_path, trace, alphabet, message):
    argv = ["trace-check", "--agents", "3"]
    if alphabet is not None:
        (tmp_path / "alphabet.jsonl").write_text(json.dumps(alphabet) + "\n")
        argv += ["--alphabet-file", str(tmp_path / "alphabet.jsonl")]
    (tmp_path / "trace.jsonl").write_text(json.dumps(trace) + "\n")
    code, _, err = run(capsys, *argv, str(tmp_path / "trace.jsonl"))
    assert_one_line_usage_error(code, err)
    assert err.startswith("mapmerge: parse error: ") and message in err


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "argv, expected",
    [
        (("explore", "--agents", "2"), 0),
        (("explore", "--agents", "3", "--max-states", "40"), 1),
        (("explore", "--agents", "2", "--max-states", "0"), 2),
    ],
)
def test_main_restores_collector_state(capsys, argv, expected, enabled):
    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        assert run(capsys, *argv)[0] == expected
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_main_pauses_collector_while_dispatching(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_explore", lambda args: seen.append(gc.isenabled()) or 0)
    assert gc.isenabled()
    assert main(["explore", "--agents", "2"]) == 0
    assert seen == [False] and gc.isenabled()


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


def test_scenario_file_reusing_a_builtin_name_usage_error(capsys, tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([scenario_to_json(builtin_scenarios()[0])]))
    code, _, err = run(capsys, "scenarios", "--agents", "3", "--scenario-file", str(path), "--name", "scenario1")
    assert_one_line_usage_error(code, err)
    assert err.startswith(f"mapmerge: parse error: {path}: ") and "'scenario1'" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ("trace-check", "{bad}"),
        ("trace-check", "--alphabet-file", "{bad}", "{trace}"),
        ("scenarios", "--scenario-file", "{bad}"),
    ],
    ids=["trace", "alphabet", "scenarios"],
)
def test_input_file_not_utf8_usage_error(capsys, tmp_path, argv):
    bad, trace = tmp_path / "utf16.json", tmp_path / "trace.jsonl"
    bad.write_bytes(json.dumps({"type": "done", "leader": "A1"}).encode("utf-16"))  # starts with b"\xff\xfe"
    trace.write_text(json.dumps({"type": "done", "leader": "A1"}) + "\n")
    code, _, err = run(capsys, *(a.format(bad=bad, trace=trace) for a in argv))
    assert_one_line_usage_error(code, err)
    assert err.startswith(f"mapmerge: parse error: {bad}: ")


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


VERIFICATION_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_verification.py"


def test_verification_script_passes(tmp_path, src_env):
    argv = [sys.executable, str(VERIFICATION_SCRIPT), "--max-agents", "3"]
    proc = subprocess.run(argv, env=src_env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("overall: pass")


@pytest.mark.parametrize("max_agents", ["1", "9"])
def test_verification_script_rejects_agent_count_out_of_bounds(tmp_path, src_env, max_agents):
    # 1 would check nothing and pass; 9 would explore n=2..8 first.
    argv = [sys.executable, str(VERIFICATION_SCRIPT), "--max-agents", max_agents]
    proc = subprocess.run(argv, env=src_env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1 and "--max-agents must be in [2, 8]" in proc.stderr
