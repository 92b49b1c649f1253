import hashlib
import json
from pathlib import Path

import pytest

from mapmerge.events import ConfirmMerge, RemoveReasoningAbout, label
from mapmerge.explorer import TraceQuery, explore
from mapmerge.scenarios import Scenario, builtin_scenarios, check_scenario, load_scenarios, scenario_from_json
from mapmerge.world import ConfigurationError, initial_config

import conftest
from conftest import (
    BUILTIN_JSON,
    BUSY_LEADER_MUTANT,
    DEMOTE_ON_MERGE_MUTANT,
    DONE_AFTER_FIRST_MERGE_MUTANT,
    OLD_AGENT_GUARD_MUTANT,
    OWN_GROUP_MUTANT,
    mutant,
)

BY_NAME = {s.name: s for s in builtin_scenarios()}
# Scenarios that tell a mutant apart from the model, kept beside the tests (ROADMAP item 18).
MUTANT_SCENARIOS = {
    s.name: s for s in load_scenarios(Path(__file__).with_name("mutant_scenarios.json").read_text(encoding="utf-8"))
}
# initial_config flags of the scenarios written for a model other than the default.
SCENARIO_FLAGS = {"removal-per-refused-target": {"merge_set_max": 2}}


def test_six_builtins():
    names = [s.name for s in builtin_scenarios()]
    assert names == ["scenario1", "scenario2", "scenario3", "scenario4a", "scenario4b", "scenario5"]
    tags = {s.name: s.requirement_tag for s in builtin_scenarios()}
    assert tags["scenario2"] == "REQ2" and tags["scenario4b"] == "REQ2"
    assert tags["scenario1"] == tags["scenario3"] == tags["scenario4a"] == tags["scenario5"] == "REQ1"


@pytest.mark.parametrize("s", builtin_scenarios(), ids=lambda s: s.name)
def test_builtin_passes_at_n3(s):
    r = check_scenario(s, initial_config(3))
    assert r.found == s.expected, f"{s.name}: found={r.found}, expected={s.expected}"
    assert r.witness is not None


def test_scenario3_shape():
    s = BY_NAME["scenario3"]
    # A denied attempt never confirms; it ends by dropping the reasoning.
    assert not any(isinstance(e, ConfirmMerge) for e in s.query.trace)
    assert isinstance(s.query.trace[-1], RemoveReasoningAbout)


def test_scenario_too_small_universe():
    with pytest.raises(ConfigurationError):
        check_scenario(BY_NAME["scenario2"], initial_config(2))


# A sha256 prefix of each built-in's name, tag, expectation, alphabet and trace labels, taken from the Python
# constructors that the scenario file replaced: a slip in the file that still leaves its trace found fails here.
PINNED = {
    "scenario1": "904ac3882e45b6da",
    "scenario2": "92f6950abaa7b59e",
    "scenario3": "e5656d489dec0139",
    "scenario4a": "179b58a0ee7c7336",
    "scenario4b": "f2775f66a265b7b0",
    "scenario5": "ce0797fc66cfc61b",
}


def test_builtins_say_what_the_constructors_said():
    def digest(s):
        alphabet = "all_visible" if s.query.alphabet is None else sorted(map(label, s.query.alphabet))
        text = json.dumps([s.name, s.requirement_tag, s.expected, alphabet, [label(e) for e in s.query.trace]])
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    assert {s.name: digest(s) for s in builtin_scenarios()} == PINNED


def test_load_scenarios_from_text():
    text = json.dumps([BUILTIN_JSON["scenario1"], BUILTIN_JSON["scenario2"]])
    loaded = load_scenarios(text)
    assert [s.name for s in loaded] == ["scenario1", "scenario2"]
    assert loaded[0].query.alphabet is None


def test_load_scenarios_rejects_duplicates():
    doc = [BUILTIN_JSON["scenario1"]] * 2
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
        scenario_from_json(dict(BUILTIN_JSON["scenario3"], expected=expected))


def test_negative_scenario():
    # A scenario may pin the absence of a behaviour.
    from mapmerge.events import ConfirmMerge
    from mapmerge.ids import AgentId

    bad = ConfirmMerge(req_leader=AgentId(2), other_leader=AgentId(1))
    s = Scenario(
        "inverted-priority",
        TraceQuery((bad,), frozenset({bad})),
        "REQ1",
        expected=False,
    )
    r = check_scenario(s, initial_config(3))
    assert r.found == s.expected and not r.found and r.witness is None


def test_done_needs_the_whole_team():
    # With merge_completed and done visible at n=3, A1 is never done right after it merges with A2 alone: a leader
    # is done only once it holds the whole team.  Dropping that guard operand lets the trace through.
    s = MUTANT_SCENARIOS["done-needs-whole-team"]
    assert s.requirement_tag == "GOAL" and not s.expected
    r = check_scenario(s, initial_config(3))
    assert not r.found and r.complete
    with mutant(*DONE_AFTER_FIRST_MERGE_MUTANT):
        r = check_scenario(s, initial_config(3))
    assert r.found and [label(e) for e in r.witness][-4:] == [
        "merge_completed.A1.A2.{A1,A2}",
        "update_identified_same_group.A1.A1.{A1,A2}",
        "update_identified.A1.A2.{A1,A2}",
        "done.A1",
    ]


def test_busy_leader_takes_no_request():
    # A2, busy considering A1's confirmation, takes no request_merge from its own agent until it answers.  Dropping
    # the guard operand that a leader awaits a request lets the trace through, and every built-in still passes.
    s = MUTANT_SCENARIOS["busy-leader-takes-no-request"]
    assert s.requirement_tag == "GOAL" and not s.expected and s.query.alphabet is None
    r = check_scenario(s, initial_config(3))
    assert not r.found and r.complete
    with mutant(*BUSY_LEADER_MUTANT):
        c0 = initial_config(3)
        assert check_scenario(s, c0).found
        assert all(check_scenario(b, c0).found == b.expected for b in builtin_scenarios())


def test_removal_per_refused_target():
    # At n=3 with merge_set_max=2, A3's leader refuses both targets of one request and A3 accepts both removals.  The
    # old agent guard refuses every removal after the first, so the trace is absent under it.
    s = MUTANT_SCENARIOS["removal-per-refused-target"]
    assert s.requirement_tag == "GOAL" and s.expected and len(s.query.alphabet) == 33
    r = check_scenario(s, initial_config(3, **SCENARIO_FLAGS[s.name]))
    assert r.found and r.complete and [label(e) for e in r.witness] == [
        "request_merge.A3.A3.{A1,A2}",
        "begin_merge.A3",
        "request_leader.A3.A1",
        "reply_leader.A1.A3.A1",
        "remove_reasoning_about.A3.A1",
        "request_leader.A3.A2",
        "reply_leader.A2.A3.A2",
        "remove_reasoning_about.A3.A2",
    ]
    with mutant(*OLD_AGENT_GUARD_MUTANT):
        r = check_scenario(s, initial_config(3, **SCENARIO_FLAGS[s.name]))
    assert not r.found and r.complete


# Mutants whose graph is the plain model's, transition for transition and label for label: the reasons beside them in
# conftest say why, and test_graph_identical_mutant_shows_in_no_trace pins it.
GRAPH_IDENTICAL = {"DEMOTE_ON_MERGE_MUTANT": DEMOTE_ON_MERGE_MUTANT, "OWN_GROUP_MUTANT": OWN_GROUP_MUTANT}


@pytest.mark.parametrize("spec", GRAPH_IDENTICAL.values(), ids=GRAPH_IDENTICAL)
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("flags", [{}, {"merge_set_max": 2}, {"harness": False}], ids=["default", "msm2", "no_harness"])
def test_graph_identical_mutant_shows_in_no_trace(spec, n, flags):
    # The same transitions, label for label, give the same traces under every alphabet, so no scenario can tell the
    # mutant from the model.
    def transitions(g):
        return list(g.offsets), list(g.targets), [g.model.labels[ev] for ev in g.events]

    plain = explore(initial_config(n, **flags), checks=[])
    with mutant(*spec):
        mutated = explore(initial_config(n, **flags), checks=[])
    assert transitions(mutated) == transitions(plain)
    assert any(mutated.state(i) != plain.state(i) for i in range(plain.state_count))  # the mutant was installed


# The built-in and mutant-file scenarios that fail at n=3 under each conftest mutant, each scenario under the model
# that it is written for (ROADMAP item 18).
KILLED_BY = {
    "PRIORITY_MUTANT": {"scenario3", "scenario4a", "scenario5", "removal-per-refused-target"},
    "ACTIVE_MUTANT": {"scenario4b"},
    "DEMOTE_ON_MERGE_MUTANT": set(),
    "REPLACE_SET_MUTANT": {"scenario1", "scenario4a", "scenario4b", "scenario5"},
    "OLD_AGENT_GUARD_MUTANT": {"removal-per-refused-target"},
    "DONE_AFTER_FIRST_MERGE_MUTANT": {"done-needs-whole-team"},
    "BUSY_LEADER_MUTANT": {"busy-leader-takes-no-request"},
    "OWN_GROUP_MUTANT": set(),
    "STALE_LEADER_MUTANT": {"scenario4a", "scenario5"},
    "UNANSWERED_CANCEL_MUTANT": {"scenario2", "scenario4b"},
}


def test_kill_matrix_of_the_conftest_mutants():
    everything = [*builtin_scenarios(), *MUTANT_SCENARIOS.values()]

    def failing():
        results = [(s, check_scenario(s, initial_config(3, **SCENARIO_FLAGS.get(s.name, {})))) for s in everything]
        assert all(r.complete for _, r in results)
        return {s.name for s, r in results if r.found != s.expected}

    assert failing() == set()
    mutants = {k: v for k, v in vars(conftest).items() if k.endswith("_MUTANT")}
    assert set(KILLED_BY) == set(mutants)  # a new mutant needs its row
    got = {}
    for name, spec in mutants.items():
        with mutant(*spec):
            got[name] = failing()
    assert got == KILLED_BY
    assert {name for name, killed in got.items() if not killed} <= set(GRAPH_IDENTICAL)
