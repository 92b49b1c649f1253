import json

import pytest

from mapmerge.events import ConfirmMerge, RemoveReasoningAbout
from mapmerge.scenarios import (
    Scenario,
    builtin_scenarios,
    check_scenario,
    load_scenarios,
    scenario_from_json,
    scenario_to_json,
)
from mapmerge.world import ConfigurationError, initial_config

from conftest import ACTIVE_MUTANT, PRIORITY_MUTANT, mutant

BY_NAME = {s.name: s for s in builtin_scenarios()}


def test_six_builtins():
    names = [s.name for s in builtin_scenarios()]
    assert names == ["scenario1", "scenario2", "scenario3", "scenario4a", "scenario4b", "scenario5"]
    tags = {s.name: s.requirement_tag for s in builtin_scenarios()}
    assert tags["scenario2"] == "REQ2" and tags["scenario4b"] == "REQ2"
    assert tags["scenario1"] == tags["scenario3"] == tags["scenario4a"] == tags["scenario5"] == "REQ1"


@pytest.mark.parametrize("s", builtin_scenarios(), ids=lambda s: s.name)
def test_builtin_passes_at_n3(s):
    r = check_scenario(s, initial_config(3))
    assert r.verdict, f"{s.name}: found={r.found}, expected={r.expected}"
    assert r.witness is not None


def test_scenario3_shape():
    s = BY_NAME["scenario3"]
    # A denied attempt never confirms; it ends by dropping the reasoning.
    assert not any(isinstance(e, ConfirmMerge) for e in s.trace)
    assert isinstance(s.trace[-1], RemoveReasoningAbout)


def test_scenario_too_small_universe():
    with pytest.raises(ConfigurationError):
        check_scenario(BY_NAME["scenario2"], initial_config(2))


def test_scenario_json_roundtrip():
    for s in builtin_scenarios():
        assert scenario_from_json(scenario_to_json(s)) == s


def test_load_scenarios_from_text():
    text = json.dumps([scenario_to_json(s) for s in builtin_scenarios()[:2]])
    loaded = load_scenarios(text)
    assert [s.name for s in loaded] == ["scenario1", "scenario2"]
    assert loaded[0].alphabet is None


def test_load_scenarios_rejects_duplicates():
    doc = [scenario_to_json(builtin_scenarios()[0])] * 2
    with pytest.raises(ValueError):
        load_scenarios(json.dumps(doc))


def test_load_scenarios_rejects_non_list():
    with pytest.raises(ValueError):
        load_scenarios("{}")


def test_scenario_from_json_missing_field():
    with pytest.raises(ValueError):
        scenario_from_json({"name": "x"})


@pytest.mark.parametrize("expected", ["false", 0, None])
def test_scenario_from_json_expected_must_be_a_boolean(expected):
    with pytest.raises(ValueError, match="'expected'"):
        scenario_from_json(dict(scenario_to_json(BY_NAME["scenario3"]), expected=expected))


def test_negative_scenario():
    # A scenario may pin the absence of a behaviour.
    from mapmerge.events import ConfirmMerge
    from mapmerge.ids import AgentId

    bad = ConfirmMerge(req_leader=AgentId(2), other_leader=AgentId(1))
    s = Scenario(
        "inverted-priority",
        "a lower-priority leader must never drive a merge",
        (bad,),
        "REQ1",
        expected=False,
        alphabet=frozenset({bad}),
    )
    r = check_scenario(s, initial_config(3))
    assert r.verdict and not r.found and r.witness is None


def test_mutated_model_fails_scenarios():
    # Disabling the priority guard breaks the denial scenarios.
    with mutant(*PRIORITY_MUTANT):
        r = check_scenario(BY_NAME["scenario3"], initial_config(3))
    assert not r.verdict
    # Disabling the active-flag guard breaks the stale-reply cancellation.
    with mutant(*ACTIVE_MUTANT):
        r = check_scenario(BY_NAME["scenario4b"], initial_config(3))
    assert not r.verdict
