"""Tracing from outside the program: wrap module attributes so that calls
into each layer are timed without touching mapmerge's source.

Modules import by name, so a wrapper is installed where the name is used
(e.g. `mapmerge.world.agent_step`, not `mapmerge.processes.agent_step`).

Coarse calls get one span each: name, start, end, parent, run id.  Hot calls
(millions at n=4) are aggregated per parent span as a count, a total time,
the time covered by their own children, and a count of flagged results.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager

from mapmerge import cli, explorer, export, scenarios, world
from mapmerge.explorer import Check


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.hot: dict = {}  # (parent span id, name) -> [calls, total_s, child_s, flagged]
        self._stack = [[None, 0.0]]  # frames: [enclosing span id, child time]

    def span(self, name: str, fn, note=None):
        """One span per call.  `note(record, result)` may add fields."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            rec = {"id": len(spans), "name": name, "parent": parent[0], "run": self.run_id}
            spans.append(rec)
            frame = [rec["id"], 0.0]
            stack.append(frame)
            rec["maxrss_kb_before"] = _maxrss_kb()
            rec["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = end = clock()
                stack.pop()
                rec["child_s"] = frame[1]
                rec["maxrss_kb_after"] = _maxrss_kb()
                parent[1] += end - rec["start"]
            if note is not None:
                note(rec, result)
            return result

        return wrapper

    def aggregate(self, name: str, fn, flag=None):
        """Count and time calls per enclosing span; `flag(result)` counts
        results of interest (refusals, enabled events)."""
        stack, agg, clock = self._stack, self.hot, time.perf_counter

        def wrapper(*args):
            parent = stack[-1]
            frame = [parent[0], 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
            stats = agg.get((frame[0], name))
            if stats is None:
                stats = agg[(frame[0], name)] = [0, 0.0, 0.0, 0]
            stats[0] += 1
            stats[1] += dt
            stats[2] += frame[1]
            if flag is not None and flag(result):
                stats[3] += 1
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "run": self.run_id,
            "spans": self.spans,
            "hot": [
                {"parent": p, "name": n, "calls": s[0], "total_s": s[1], "child_s": s[2], "flagged": s[3]}
                for (p, n), s in self.hot.items()
            ],
        }


def _refused(result) -> bool:
    return result is None


def _note_graph(rec: dict, g) -> None:
    rec["states"] = g.state_count
    rec["transitions"] = g.transition_count


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced attribute for the duration of the block."""
    orig_default_checks = explorer.default_checks

    def default_checks():
        return [
            Check(c.name, c.kind, tracer.aggregate(f"explorer.checks.{c.kind}", c.fn))
            for c in orig_default_checks()
        ]

    plan = [
        (world, "agent_step", tracer.aggregate("processes.agent_step", world.agent_step, _refused)),
        (world, "leader_step", tracer.aggregate("processes.leader_step", world.leader_step, _refused)),
        (world, "is_enabled", tracer.aggregate("world.is_enabled", world.is_enabled, bool)),
        (world, "universe", tracer.aggregate("ids.universe", world.universe)),
        (explorer, "enabled_events", tracer.aggregate("world.enabled_events", explorer.enabled_events)),
        (explorer, "apply_event", tracer.aggregate("world.apply_event", explorer.apply_event)),
        (explorer, "default_checks", default_checks),
        (cli, "main", tracer.span("cli.main", cli.main)),
        (cli, "explore", tracer.span("explorer.explore", cli.explore, _note_graph)),
        (cli, "find_deadlocks", tracer.span("explorer.find_deadlocks", cli.find_deadlocks)),
        (cli, "find_hidden_divergence", tracer.span("explorer.find_hidden_divergence", cli.find_hidden_divergence)),
        (cli, "check_inevitable", tracer.span("explorer.check_inevitable", cli.check_inevitable)),
        (cli, "label_nondeterminism_report", tracer.span("explorer.choice_report", cli.label_nondeterminism_report)),
        (cli, "export_graph", tracer.span("export.export_graph", cli.export_graph)),
        (export, "to_json_graph", tracer.span("export.to_json_graph", export.to_json_graph)),
        (cli, "has_trace", tracer.span("explorer.has_trace", cli.has_trace)),
        (scenarios, "has_trace", tracer.span("explorer.has_trace", scenarios.has_trace)),
        (cli, "check_scenario", tracer.span("scenarios.check_scenario", cli.check_scenario)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in plan]
    for mod, attr, wrapper in plan:
        setattr(mod, attr, wrapper)
    try:
        yield tracer
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dumps: list) -> dict:
    """Per-layer figures summed over the traced processes of one workload
    cycle.  A layer the workload never enters reads 0."""
    spans = [s for d in dumps for s in d["spans"]]
    hot = [h for d in dumps for h in d["hot"]]

    def calls(name):
        return sum(h["calls"] for h in hot if h["name"] == name)

    def flagged(name):
        return sum(h["flagged"] for h in hot if h["name"] == name)

    def total_s(name):
        return sum(h["total_s"] for h in hot if h["name"] == name) + sum(
            s["end"] - s["start"] for s in spans if s["name"] == name
        )

    def self_s(name):
        return total_s(name) - sum(h["child_s"] for h in hot if h["name"] == name) - sum(
            s["child_s"] for s in spans if s["name"] == name
        )

    def rss_delta_kb(name):
        return sum(s["maxrss_kb_after"] - s["maxrss_kb_before"] for s in spans if s["name"] == name)

    explores = [s for s in spans if s["name"] == "explorer.explore"]
    states = sum(s["states"] for s in explores)
    transitions = sum(s["transitions"] for s in explores)
    trace_spans = {(d["run"], s["id"]) for d in dumps for s in d["spans"] if s["name"] == "explorer.has_trace"}
    trace_applies = sum(
        h["calls"]
        for d in dumps
        for h in d["hot"]
        if h["name"] == "world.apply_event" and (d["run"], h["parent"]) in trace_spans
    )
    steps = calls("processes.agent_step") + calls("processes.leader_step")
    return {
        "processes.agent_step.calls": calls("processes.agent_step"),
        "processes.leader_step.calls": calls("processes.leader_step"),
        "processes.step.refused": flagged("processes.agent_step") + flagged("processes.leader_step"),
        "processes.step_s": total_s("processes.agent_step") + total_s("processes.leader_step"),
        "world.steps_per_transition": _ratio(steps, calls("world.apply_event")),
        "world.is_enabled.calls": calls("world.is_enabled"),
        "world.enable_ratio": _ratio(flagged("world.is_enabled"), calls("world.is_enabled")),
        "world.enabled_events.self_s": self_s("world.enabled_events"),
        "world.apply_event.self_s": self_s("world.apply_event"),
        "ids.universe.calls": calls("ids.universe"),
        "explorer.explore.self_s": self_s("explorer.explore"),
        "explorer.states_per_s": _ratio(states, total_s("explorer.explore")),
        "explorer.dedup_hit_ratio": _ratio(transitions - (states - len(explores)), transitions),
        "explorer.bytes_per_state": _ratio(rss_delta_kb("explorer.explore") * 1024, states),
        "explorer.checks.state_s": total_s("explorer.checks.state"),
        "explorer.checks.transition_s": total_s("explorer.checks.transition"),
        "explorer.find_deadlocks_s": total_s("explorer.find_deadlocks"),
        "explorer.find_hidden_divergence_s": total_s("explorer.find_hidden_divergence"),
        "explorer.check_inevitable_s": total_s("explorer.check_inevitable"),
        "explorer.choice_report_s": total_s("explorer.choice_report"),
        "explorer.has_trace_s": total_s("explorer.has_trace"),
        "explorer.has_trace.apply_calls": trace_applies,
        "export.to_json_graph_s": total_s("export.to_json_graph"),
        "export.rss_delta_mb": rss_delta_kb("export.export_graph") / 1024,
        "scenarios.check_scenario_s": total_s("scenarios.check_scenario"),
        "cli.self_s": self_s("cli.main"),
        "trace.hot_calls": sum(h["calls"] for h in hot),
    }
