import gc
import itertools
import json
import runpy
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import pytest

from mapmerge import cli, scenarios, world
from mapmerge.cli import main
from mapmerge.events import label, to_json
from mapmerge.scenarios import builtin_scenarios

from conftest import BUILTIN_JSON, PRIORITY_MUTANT, mutant


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
    # The exploration's time is the invariants check's, not a report field.
    assert "duration_ms" not in doc
    assert all("duration_ms" in c for c in doc["checks"])


def duration_paths(obj, path=()):
    """The path of every key of a JSON document that names a duration."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k.startswith("duration"):
                yield path + (k,)
            yield from duration_paths(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from duration_paths(v, path + (i,))


@pytest.mark.parametrize(
    "argv",
    [
        ("explore", "--agents", "2"),
        ("scenarios", "--agents", "3"),
        ("trace-check", "--agents", "2", "{trace}"),
    ],
)
def test_timings_live_in_every_check_and_nowhere_else(capsys, tmp_path, argv):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"type": "done", "leader": "A1"}) + "\n")
    _, out, _ = run(capsys, *(a.format(trace=trace) for a in argv), "--json", "--timings")
    doc = json.loads(out)
    assert list(duration_paths(doc)) == [("checks", i, "duration_ms") for i in range(len(doc["checks"]))]


def test_invariants_are_timed_with_the_exploration(monkeypatch):
    # The invariants run inside explore, so their check takes its time.
    explore = cli.explore

    def slow_explore(*args, **kwargs):
        time.sleep(0.05)
        return explore(*args, **kwargs)

    monkeypatch.setattr(cli, "explore", slow_explore)
    report = cli.verify(world.initial_config(2))
    assert report["checks"][0]["name"] == "invariants"
    assert report["checks"][0]["duration_ms"] >= 50


def count_calls(monkeypatch, *names) -> Counter:
    """Wrap each named `cli` global in a call counter, as perfbench's tracer
    wraps them in spans: a caller that bound the function at import time
    would bypass the wrapper."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    return calls


def test_verify_calls_each_traced_function_once(monkeypatch):
    names = ("explore", "find_deadlocks", "find_hidden_divergence", "check_inevitable", "label_nondeterminism_report")
    calls = count_calls(monkeypatch, *names)
    cli.verify(world.initial_config(2))
    assert calls == dict.fromkeys(names, 1)


def test_commands_call_their_traced_functions(capsys, monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, "has_trace", "check_scenario", "export_graph")
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"type": "done", "leader": "A1"}) + "\n")
    assert run(capsys, "trace-check", "--agents", "2", str(trace))[0] == 1  # not a whole visible trace
    assert run(capsys, "scenarios", "--agents", "3")[0] == 0
    assert run(capsys, "export", "--agents", "2", "--out", str(tmp_path / "graph.dot"))[0] == 0
    assert calls == {"has_trace": 1, "check_scenario": len(builtin_scenarios()), "export_graph": 1}


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
    code, _, err = run(capsys, "explore", "--agents", "3", "--json")
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
        ("explore", "--agents", "2", "--dot", "graph.dot"),
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
    [
        ("requirement", [1]),
        ("requirement", "REQ9"),
        ("description", 5),
        ("trace", {}),
        ("trace", ""),
        ("alphabet", {}),
        ("alphabet", ""),
        ("name", ""),
        ("expect", False),
    ],
    ids=[
        "requirement-list",
        "requirement-unknown",
        "description-int",
        "trace-object",
        "trace-string",
        "alphabet-object",
        "alphabet-string",
        "name-empty",
        "expect-unknown",
    ],
)
def test_scenario_file_bad_requirement_or_description_usage_error(capsys, tmp_path, field, value):
    # An empty object or string as the trace or alphabet is not read as an empty one.
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
        (
            {
                "name": "hidden",
                "trace": [{"type": "confirm_merge", "req_leader": "A1", "other_leader": "A2"}],
                "alphabet": [{"type": "done", "leader": "A1"}],
            },
            "confirm_merge.A1.A2 not in the visible alphabet",
        ),
        ({"name": "internal", "trace": [{"type": "begin_merge", "leader": "A1"}]}, "not in the visible alphabet"),
    ],
    ids=["empty-merge-set", "alphabet-outside-universe", "outside-alphabet", "internal-event"],
)
def test_scenario_file_event_outside_model_usage_error(capsys, monkeypatch, tmp_path, scenario, message):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([scenario]))
    calls = count_calls(monkeypatch, "check_scenario")
    code, _, err = run(capsys, "scenarios", "--agents", "3", "--scenario-file", str(path))
    assert_one_line_usage_error(code, err)
    assert err.startswith(f"mapmerge: parse error: {path}: ")
    assert message in err
    assert not calls  # rejected on load, before any search


@pytest.mark.parametrize(
    "trace, alphabet, message",
    [
        ({"type": "done", "leader": "A7"}, None, "outside universe of size 3"),
        ({"type": "request_merge", "agent": "A1", "leader": "A1", "merge_set": []}, None, "empty merge_set"),
        ({"type": "request_merge", "agent": "A1", "leader": "A1", "merge_set": {"A2": 0}}, None, "JSON array"),
        ({"type": "merge_completed", "req_leader": "A1", "other_leader": "A2", "union_set": "A2"}, None, "JSON array"),
        ({"type": []}, None, "string 'type'"),
        ({"type": "done", "leader": "A1"}, {"type": "done", "leader": "A4"}, "outside universe of size 3"),
        ({"type": "done", "leader": "A1"}, {"type": "done", "leader": "A2"}, "not in the visible alphabet"),
    ],
    ids=[
        "outside-universe",
        "empty-merge-set",
        "merge-set-object",
        "union-set-string",
        "type-not-string",
        "alphabet-outside-universe",
        "outside-alphabet",
    ],
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
    code, _, err = run(capsys, "scenarios", "--agents", "3", "--name", "nope")
    assert code == 2
    assert err == "mapmerge: unknown scenario 'nope'\n"


def test_scenarios_universe_too_small(capsys):
    code, _, err = run(capsys, "scenarios", "--agents", "2")
    assert code == 2
    assert "too small" in err


def test_scenario_file_loaded(capsys, tmp_path):
    extra = dict(BUILTIN_JSON["scenario1"], name="copy-of-1")
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([extra]))
    code, out, _ = run(
        capsys, "scenarios", "--agents", "3", "--scenario-file", str(path), "--json"
    )
    assert code == 0
    assert json.loads(out)["total"] == 7


def test_scenario_file_reusing_a_builtin_name_usage_error(capsys, tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([BUILTIN_JSON["scenario1"]]))
    code, _, err = run(capsys, "scenarios", "--agents", "3", "--scenario-file", str(path), "--name", "scenario1")
    assert_one_line_usage_error(code, err)
    assert err.startswith(f"mapmerge: parse error: {path}: ") and "'scenario1'" in err


def test_failing_scenario_carries_a_witness_that_replays(capsys, tmp_path):
    # scenario1's trace, expected absent: the report shows the run that has it.
    absent = dict(BUILTIN_JSON["scenario1"], name="scenario1-absent", expected=False)
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([absent]))
    argv = ("scenarios", "--agents", "3", "--scenario-file", str(path), "--name", "scenario1-absent")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["verdict"] == "fail" and check["witness"]
    code, out, _ = run(capsys, *argv)
    assert code == 1 and f"witness: {', '.join(check['witness'])}" in out
    # The labels name one event each at every state on the way, so they replay.
    c, events = world.initial_config(3), []
    for text in check["witness"]:
        (e,) = [e for e in world.enabled_events(c) if label(e) == text]
        events.append(e)
        c = world.apply_event(c, e)
    witness = tmp_path / "witness.jsonl"
    witness.write_text("".join(json.dumps(to_json(e)) + "\n" for e in events))
    code, out, _ = run(capsys, "trace-check", "--agents", "3", "--json", "--alphabet-file", str(witness), str(witness))
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_trace_check_pass(capsys, tmp_path):
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps(e) for e in BUILTIN_JSON["scenario1"]["trace"]]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "trace-check", "--agents", "3", "--json", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["trace_length"] == 9 and doc["witness"]


def test_trace_check_prints_its_witness(capsys, tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in BUILTIN_JSON["scenario1"]["trace"]))
    code, out, _ = run(capsys, "trace-check", "--agents", "3", "--json", str(path))
    witness = json.loads(out)["witness"]
    assert code == 0 and len(witness) > 9
    code, out, _ = run(capsys, "trace-check", "--agents", "3", str(path))
    assert code == 0 and f"\nwitness: {', '.join(witness)}\nverdict: pass\n" in out


def test_trace_check_prints_an_empty_witness(capsys, tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, out, _ = run(capsys, "trace-check", "--agents", "3", "--json", str(path))
    assert code == 0 and json.loads(out)["witness"] == []
    code, out, _ = run(capsys, "trace-check", "--agents", "3", str(path))
    assert code == 0 and "\nwitness: (empty)\nverdict: pass\n" in out


def test_failing_scenario_prints_an_empty_witness(capsys, tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([{"name": "x", "trace": [], "expected": False}]))
    argv = ("scenarios", "--agents", "3", "--scenario-file", str(path), "--name", "x")
    code, out, _ = run(capsys, *argv, "--json")
    (check,) = json.loads(out)["checks"]
    assert code == 1 and check["witness"] == []
    code, out, _ = run(capsys, *argv)
    assert code == 1 and "\n         witness: (empty)\nverdict: fail\n" in out


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


def test_trace_check_event_hidden_by_the_alphabet_names_the_trace_file(capsys, tmp_path):
    alphabet, trace = tmp_path / "alphabet.jsonl", tmp_path / "trace.jsonl"
    alphabet.write_text(json.dumps({"type": "confirm_merge", "req_leader": "A2", "other_leader": "A1"}) + "\n")
    trace.write_text(json.dumps({"type": "confirm_merge", "req_leader": "A1", "other_leader": "A2"}) + "\n")
    code, _, err = run(capsys, "trace-check", "--agents", "3", "--alphabet-file", str(alphabet), str(trace))
    assert code == 2
    assert err == f"mapmerge: parse error: {trace}: trace event confirm_merge.A1.A2 not in the visible alphabet\n"


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


REPEATED_EXPECTED = '[{{"name": "s", "trace": [], "expected": {}, "expected": {}}}]'
REPEATED_KEY = '{"type": "confirm_merge", "req_leader": "A2", "other_leader": "A1", "req_leader": "A1"}'


@pytest.mark.parametrize(
    "argv, text, where",
    [
        # json.loads raises RecursionError on deep nesting, and ValueError on an int of more than 4,300 digits.
        (("trace-check", "{bad}"), "[" * 200_000, ":1: "),
        (("trace-check", "--alphabet-file", "{bad}", "{trace}"), "[" * 200_000, ":1: "),
        (("scenarios", "--scenario-file", "{bad}"), "[" * 200_000, ": "),
        (("trace-check", "{bad}"), "1" * 5_000, ":1: "),
        (("trace-check", "--alphabet-file", "{bad}", "{trace}"), "1" * 5_000, ":1: "),
        # A key that an object repeats is an error, whichever of its values comes last.
        (("scenarios", "--scenario-file", "{bad}", "--name", "s"), REPEATED_EXPECTED.format("false", "true"), ": "),
        (("scenarios", "--scenario-file", "{bad}", "--name", "s"), REPEATED_EXPECTED.format("true", "false"), ": "),
        (("trace-check", "{bad}"), REPEATED_KEY, ":1: "),
        (("trace-check", "--alphabet-file", "{bad}", "{trace}"), REPEATED_KEY, ":1: "),
    ],
    ids=[
        "trace-nested",
        "alphabet-nested",
        "scenarios-nested",
        "trace-5000-digits",
        "alphabet-5000-digits",
        "scenarios-repeated-key-last-true",
        "scenarios-repeated-key-last-false",
        "trace-repeated-key",
        "alphabet-repeated-key",
    ],
)
def test_input_file_json_rejected_usage_error(capsys, tmp_path, argv, text, where):
    bad, trace = tmp_path / "bad.json", tmp_path / "trace.jsonl"
    bad.write_text(text + "\n")
    trace.write_text(json.dumps({"type": "done", "leader": "A1"}) + "\n")
    code, _, err = run(capsys, *(a.format(bad=bad, trace=trace) for a in argv))
    assert_one_line_usage_error(code, err)
    assert err.startswith(f"mapmerge: parse error: {bad}{where}")


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
    assert text.count("->") == 77


def test_export_to_an_empty_path_fails_like_any_unwritable_path(capsys):
    # An empty --out, say from an unset shell variable, names no file: it must not send the graph to stdout.
    code, out, err = run(capsys, "export", "--agents", "2", "--out", "")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("mapmerge: ")


def test_scenarios_empty_name_is_an_unknown_scenario(capsys):
    # An empty flag value is a value: it must not select every scenario as an absent --name does.
    code, out, err = run(capsys, "scenarios", "--agents", "3", "--name", "")
    assert (code, out) == (2, "")
    assert err == "mapmerge: unknown scenario ''\n"


def test_scenarios_empty_scenario_file_fails_like_any_unreadable_path(capsys):
    code, out, err = run(capsys, "scenarios", "--agents", "3", "--scenario-file", "")
    assert (code, out) == (1, "")
    assert err == "mapmerge: [Errno 2] No such file or directory: ''\n"


def test_trace_check_empty_alphabet_file_fails_like_any_unreadable_path(capsys, tmp_path):
    # Without the alphabet every event would be visible: a verdict on another query.
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps({"type": "done", "leader": "A1"}) + "\n")
    code, out, err = run(capsys, "trace-check", "--agents", "3", "--alphabet-file", "", str(path))
    assert (code, out) == (1, "")
    assert err == "mapmerge: [Errno 2] No such file or directory: ''\n"


def test_export_opens_out_before_it_explores(capsys, monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, "explore")
    code, out, err = run(capsys, "export", "--agents", "2", "--out", str(tmp_path / "missing" / "g.json"))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("mapmerge: ")
    assert calls == {}


def test_export_dot_of_a_bounded_graph_says_so(capsys):
    line = '  label="incomplete: a bound cut the search";\n'
    code, out, _ = run(capsys, "export", "--agents", "3", "--max-states", "100", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph mapmerge {\n  rankdir=LR;\n  node [shape=box];\n" + line)
    code, out, _ = run(capsys, "export", "--agents", "3", "--format", "dot")
    assert code == 0 and line not in out


VERIFICATION_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_verification.py"


def test_verification_script_passes(tmp_path, src_env):
    argv = [sys.executable, str(VERIFICATION_SCRIPT), "--max-agents", "3"]
    proc = subprocess.run(argv, env=src_env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("overall: pass")


@pytest.mark.parametrize("break_model", [True, False], ids=["priority-mutant", "scenario3-expected-absent"])
def test_verification_script_fails_a_broken_scenario(capsys, monkeypatch, break_model):
    # Without the priority guard a leader confirms a merge it should deny, so scenario3's trace is absent, and the
    # explored graphs break an invariant too.  On the intact model, expecting scenario3's trace absent fails that
    # scenario alone: the sweep's verdict must then come from the scenario report.
    monkeypatch.setattr(sys, "argv", [str(VERIFICATION_SCRIPT), "--max-agents", "3"])
    if not break_model:
        flipped = tuple(s._replace(expected=s.name != "scenario3") for s in builtin_scenarios())
        monkeypatch.setattr(scenarios, "builtin_scenarios", lambda: flipped)
    with mutant(*PRIORITY_MUTANT) if break_model else nullcontext(), pytest.raises(SystemExit) as exit:
        runpy.run_path(str(VERIFICATION_SCRIPT), run_name="__main__")
    out = capsys.readouterr().out
    assert exit.value.code == 1
    row = next(line for line in out.splitlines() if line.startswith("scenario3 "))
    assert "FAIL" in row and out.rstrip().endswith("overall: FAIL")
    # The scenario table's header and rows, ok or FAIL, have one length, so each n=K sits over its column.
    table = out.split("\n\n")[1].splitlines()
    assert table[0].startswith("scenario ") and len(table) == 7
    assert len(set(map(len, table))) == 1
    assert break_model or "fail" not in out  # every explore check passed


@pytest.mark.parametrize("max_agents", ["1", "9"])
def test_verification_script_rejects_agent_count_out_of_bounds(tmp_path, src_env, max_agents):
    # 1 would check nothing and pass; 9 would explore n=2..8 first.
    argv = [sys.executable, str(VERIFICATION_SCRIPT), "--max-agents", max_agents]
    proc = subprocess.run(argv, env=src_env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1 and "--max-agents must be in [2, 8]" in proc.stderr


def test_verification_script_at_two_agents_prints_no_scenario_table(capsys, monkeypatch):
    # Scenarios need n >= 3, so at --max-agents 2 there is no column to print; the verdict line stays.
    monkeypatch.setattr(sys, "argv", [str(VERIFICATION_SCRIPT), "--max-agents", "2"])
    with pytest.raises(SystemExit) as exit:
        runpy.run_path(str(VERIFICATION_SCRIPT), run_name="__main__")
    table, verdict = capsys.readouterr().out.split("\n\n")
    assert exit.value.code == 0 and verdict == "overall: pass\n"
    assert [line.split()[0] for line in table.splitlines()] == ["n", "2"]


def run_out_of_memory_at(monkeypatch, k: int) -> None:
    """Raise MemoryError at the k-th call of Model.successors, which explore
    makes once for each state it expands: no test may exhaust the OS."""
    successors, calls = world.Model.successors, itertools.count(1)

    def failing(self, key, code):
        if next(calls) == k:
            raise MemoryError
        return successors(self, key, code)

    monkeypatch.setattr(world.Model, "successors", failing)


@pytest.mark.parametrize("argv", [("explore", "--json"), ("export", "--format", "json")])
def test_out_of_memory_is_one_line_and_exit_1(capsys, monkeypatch, argv):
    # Expanding its 50th state, explore has found 111.
    run_out_of_memory_at(monkeypatch, 50)
    code, _, err = run(capsys, argv[0], "--agents", "3", *argv[1:])
    assert code == 1
    assert err == "mapmerge: out of memory after 111 states; bound the search with --max-states, or use fewer --agents\n"


def test_out_of_memory_after_explore_names_no_state_count(capsys, monkeypatch):
    def failing(g):
        raise MemoryError

    monkeypatch.setattr(cli, "find_deadlocks", failing)
    code, _, err = run(capsys, "explore", "--agents", "2")
    assert code == 1
    assert err == "mapmerge: out of memory; bound the search with --max-states, or use fewer --agents\n"


def test_verification_script_out_of_memory_is_one_line_and_exit_1(capsys, monkeypatch):
    run_out_of_memory_at(monkeypatch, 50)
    monkeypatch.setattr(sys, "argv", [str(VERIFICATION_SCRIPT), "--max-agents", "3"])
    with pytest.raises(SystemExit) as exit:
        runpy.run_path(str(VERIFICATION_SCRIPT), run_name="__main__")
    # The interpreter prints a str exit code as the one stderr line and exits 1.
    line = exit.value.code
    assert capsys.readouterr().err == "" and isinstance(line, str) and "\n" not in line
    # n=2 takes 43 expansions, so the 50th is the 7th at n=3, which has then found 24 states.
    assert line.startswith("run_verification: out of memory after 24 states;") and "--max-states" in line
