"""The six validation scenarios, frozen as regression data.

Each scenario is a concrete event trace whose existence (as a has-trace
check under hiding) pins one known-correct behaviour of the protocol:
Scenarios 1 and 3 exercise the priority rule between a pair of agents,
Scenario 2 a cancelled merge, Scenarios 4a/4b/5 the same requirements under
interference from a third agent.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

from .events import (
    ConfirmMerge,
    MergeCancelled,
    MergeCompleted,
    MergeConfirmed,
    MergeMaps,
    RemoveReasoningAbout,
    ReplyLeader,
    RequestLeader,
    RequestMerge,
    UpdateIdentified,
    UpdateIdentifiedSameGroup,
    event_ids,
    from_json,
    to_json,
)
from .explorer import TraceQuery, TraceResult, has_trace
from .ids import AgentId
from .world import Configuration, ConfigurationError

A1, A2, A3 = AgentId(1), AgentId(2), AgentId(3)


def _s(*agents: AgentId) -> frozenset:
    return frozenset(agents)


class Scenario(NamedTuple):
    name: str
    description: str
    trace: tuple
    requirement_tag: str  # GOAL | REQ1 | REQ2
    expected: bool = True
    alphabet: Optional[frozenset] = None  # None: every non-internal event is visible

    def query(self) -> TraceQuery:
        return TraceQuery(self.trace, self.alphabet)


_PAIR_MERGE = (
    RequestMerge(A1, A1, _s(A2)),
    RequestLeader(A1, A2),
    ReplyLeader(A2, A1, A2),
    ConfirmMerge(A1, A2),
    MergeConfirmed(A1, A2, _s(A2)),
    MergeMaps(A1, A2),
    MergeCompleted(A1, A2, _s(A1, A2)),
    UpdateIdentifiedSameGroup(A1, A1, _s(A1, A2)),
    UpdateIdentified(A1, A2, _s(A1, A2)),
)

# A1 and A2 both ask A3; A1 wins the race and absorbs A3's map.
_RACE_PREFIX = (
    RequestMerge(A2, A2, _s(A3)),
    RequestLeader(A2, A3),
    RequestMerge(A1, A1, _s(A3)),
    RequestLeader(A1, A3),
    ReplyLeader(A3, A1, A3),
    ConfirmMerge(A1, A3),
    MergeConfirmed(A1, A3, _s(A3)),
    MergeMaps(A1, A3),
    MergeCompleted(A1, A3, _s(A1, A3)),
)

_RACE_UPDATES = (
    UpdateIdentifiedSameGroup(A1, A1, _s(A1, A3)),
    UpdateIdentified(A1, A3, _s(A1, A3)),
)


def builtin_scenarios() -> tuple:
    """The six built-in validation scenarios, all expected to hold."""
    return (
        Scenario(
            "scenario1",
            "A1 merging with A2; A1 has priority, so A2's map merges into A1's.",
            _PAIR_MERGE,
            "REQ1",
        ),
        Scenario(
            "scenario2",
            "A1 merging with A2, but A2 is mid-merge itself and cancels.",
            (
                RequestMerge(A1, A1, _s(A2)),
                RequestLeader(A1, A2),
                ReplyLeader(A2, A1, A2),
                RequestMerge(A2, A2, _s(A3)),
                RequestLeader(A2, A3),
                ConfirmMerge(A1, A2),
                MergeCancelled(A1, A2),
                RemoveReasoningAbout(A1, A2),
            ),
            "REQ2",
        ),
        Scenario(
            "scenario3",
            "A2 merging with A1, denied because A2 does not have priority.",
            (
                RequestMerge(A2, A2, _s(A1)),
                RequestLeader(A2, A1),
                ReplyLeader(A1, A2, A1),
                RemoveReasoningAbout(A2, A1),
            ),
            "REQ1",
        ),
        Scenario(
            "scenario4a",
            "A2 and A1 both request a merge with A3; A1 merges first, A3 then "
            "reports its leader is A1, and A2's attempt is denied on priority.",
            _RACE_PREFIX
            + _RACE_UPDATES
            + (
                ReplyLeader(A3, A2, A1),
                RemoveReasoningAbout(A2, A3),
            ),
            "REQ1",
        ),
        Scenario(
            "scenario4b",
            "A2 and A1 both request a merge with A3; A1 merges first, A3 still "
            "reports itself as leader, and the demoted A3 cancels A2's merge.",
            _RACE_PREFIX
            + (
                ReplyLeader(A3, A2, A3),
                ConfirmMerge(A2, A3),
                MergeCancelled(A2, A3),
                RemoveReasoningAbout(A2, A3),
            )
            + _RACE_UPDATES,
            "REQ2",
        ),
        Scenario(
            "scenario5",
            "A1 merges with A2; A3 then tries to merge with A2, learns its "
            "leader is now A1, and is denied on priority.",
            _PAIR_MERGE
            + (
                RequestMerge(A3, A3, _s(A2)),
                RequestLeader(A3, A2),
                ReplyLeader(A2, A3, A1),
                RemoveReasoningAbout(A3, A2),
            ),
            "REQ1",
        ),
    )


def check_scenario(s: Scenario, c0: Configuration) -> TraceResult:
    """Search for one scenario's trace from the initial configuration `c0`."""
    needed = max((a.index for e in s.trace for a in event_ids(e)), default=1)
    if needed > c0.params.n:
        raise ConfigurationError(f"{s.name} names A{needed}; universe of {c0.params.n} agents is too small")
    return has_trace(c0, s.query())


# --------------------------------------------------------------------------
# JSON scenario files: users can add scenarios without touching the code.
# Schema: a JSON list of objects
#   {"name": ..., "description": ..., "requirement": "REQ1"|"REQ2"|"GOAL",
#    "expected": true, "trace": [event, ...],
#    "alphabet": "all_visible" | [event, ...]}
# with events spelled as in the trace-file format.
# --------------------------------------------------------------------------


def scenario_to_json(s: Scenario) -> dict:
    return {
        "name": s.name,
        "description": s.description,
        "requirement": s.requirement_tag,
        "expected": s.expected,
        "trace": [to_json(e) for e in s.trace],
        "alphabet": "all_visible"
        if s.alphabet is None
        else [to_json(e) for e in sorted(s.alphabet, key=lambda e: str(to_json(e)))],
    }


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
        s = Scenario(
            name=d["name"],
            description=description,
            trace=tuple(from_json(x) for x in trace),
            requirement_tag=requirement,
            expected=expected,
            alphabet=alpha,
        )
    except KeyError as exc:
        raise ValueError(f"scenario object missing field {exc}") from exc
    s.query()  # each trace event must be visible through the alphabet
    return s


def load_scenarios(text: str) -> list:
    doc = json.loads(text)
    if not isinstance(doc, list):
        raise ValueError("scenario file must contain a JSON list")
    scenarios = [scenario_from_json(d) for d in doc]
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("scenario names must be unique")
    return scenarios
