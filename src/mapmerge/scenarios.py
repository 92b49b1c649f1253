"""The validation scenarios, and the loader that reads them.

Each scenario is a named trace query: an event trace whose existence, seen
through the query's alphabet, pins one known-correct behaviour.  The
six built-ins are data in `scenarios.json`, beside this module, in the
scenario-file format that the README states: Scenarios 1 and 3 exercise the
priority rule between a pair of agents, Scenario 2 a cancelled merge,
Scenarios 4a/4b/5 the same requirements under interference from a third
agent.  They pass the same parse and checks as a user's `--scenario-file`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .events import event_ids, from_json, reject_repeated_keys
from .explorer import TraceQuery, TraceResult, has_trace
from .world import Configuration, ConfigurationError


class Scenario(NamedTuple):
    name: str
    query: TraceQuery
    requirement_tag: str  # GOAL | REQ1 | REQ2
    expected: bool = True


def builtin_scenarios() -> tuple:
    """The six built-in validation scenarios, all expected to hold."""
    return tuple(load_scenarios(Path(__file__).with_name("scenarios.json").read_text(encoding="utf-8")))


def check_scenario(s: Scenario, c0: Configuration) -> TraceResult:
    """Search for one scenario's trace from the initial configuration `c0`."""
    needed = max((a.index for e in s.query.trace for a in event_ids(e)), default=1)
    if needed > c0.params.n:
        raise ConfigurationError(f"{s.name} names A{needed}; universe of {c0.params.n} agents is too small")
    return has_trace(c0, s.query)


def scenario_from_json(d: dict) -> Scenario:
    """Parse one scenario object; raises ValueError on malformed input, an unknown field or a hidden trace event."""
    if not isinstance(d, dict) or not isinstance(d.get("name"), str) or not d["name"]:
        raise ValueError(f"scenario must be an object with a non-empty string 'name': {d!r}")
    if extra := set(d) - {"name", "description", "requirement", "expected", "trace", "alphabet"}:
        raise ValueError(f"scenario {d['name']!r}: unexpected fields {sorted(extra)}")
    try:
        trace, alphabet = d["trace"], d.get("alphabet", "all_visible")
        for field, v in (("trace", trace), ("alphabet", [] if alphabet == "all_visible" else alphabet)):
            if not isinstance(v, list):
                raise ValueError(f"scenario field {field!r} must be a JSON array, got {v!r}")
        alpha = None if alphabet == "all_visible" else frozenset(from_json(x) for x in alphabet)
        expected = d.get("expected", True)
        if not isinstance(expected, bool):
            raise ValueError(f"scenario field 'expected' must be true or false, got {expected!r}")
        requirement, description = d.get("requirement", "GOAL"), d.get("description", "")
        if requirement not in ("REQ1", "REQ2", "GOAL"):
            raise ValueError(f"scenario field 'requirement' must be REQ1, REQ2 or GOAL, got {requirement!r}")
        if not isinstance(description, str):
            raise ValueError(f"scenario field 'description' must be a string, got {description!r}")
        return Scenario(
            name=d["name"],
            query=TraceQuery(tuple(from_json(x) for x in trace), alpha),  # checks that each trace event is visible
            requirement_tag=requirement,
            expected=expected,
        )
    except KeyError as exc:
        raise ValueError(f"scenario object missing field {exc}") from exc


def load_scenarios(text: str) -> list:
    """The scenarios of a scenario file's text; raises ValueError on malformed input or a reused name."""
    doc = json.loads(text, object_pairs_hook=reject_repeated_keys)
    if not isinstance(doc, list):
        raise ValueError("scenario file must contain a JSON list")
    scenarios = [scenario_from_json(d) for d in doc]
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("scenario names must be unique")
    return scenarios
