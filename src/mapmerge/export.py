"""Deterministic DOT and JSON serializations of explored state graphs.

The JSON schema is versioned as "mapmerge-graph/1" and documented in
docs/graph_schema.md.
"""

from __future__ import annotations

import json

from .events import label, to_json
from .explorer import StateGraph
from .world import Configuration, is_terminal

GRAPH_SCHEMA = "mapmerge-graph/1"


def partition_label(c: Configuration) -> str:
    """Human-readable summary of a configuration: each active leader with
    its agent set, demoted leaders elided."""
    parts = []
    for l in c.leaders:
        if l.active:
            members = ",".join(a.name for a in sorted(l.agent_set))
            parts.append(f"{l.id}:{{{members}}}")
    return " ".join(parts) if parts else "(no active leaders)"


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: StateGraph) -> str:
    """GraphViz rendering: nodes carry the leader partition, edges the event
    label.  Output is byte-stable for a given graph."""
    lines = ["digraph mapmerge {", "  rankdir=LR;", "  node [shape=box];"]
    for i, c in enumerate(g.states):
        attrs = [f"label={_dot_quote(f'{i}: {partition_label(c)}')}"]
        if i == 0:
            attrs.append("style=bold")
        if is_terminal(c):
            attrs.append("peripheries=2")
        lines.append(f"  s{i} [{', '.join(attrs)}];")
    for i, e, j in g.transitions:
        lines.append(f"  s{i} -> s{j} [label={_dot_quote(label(e))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_graph(g: StateGraph) -> str:
    """JSON rendering per the mapmerge-graph/1 schema."""
    event_json = {e: to_json(e) for e in {e for _, e, _ in g.transitions}}  # one object per label
    doc = {
        "schema": GRAPH_SCHEMA,
        "agents": g.initial.params.n,
        "complete": g.complete,
        "state_count": g.state_count,
        "transition_count": g.transition_count,
        "states": [
            {
                "id": i,
                "label": partition_label(c),
                "initial": i == 0,
                "terminal": is_terminal(c),
            }
            for i, c in enumerate(g.states)
        ],
        "transitions": [
            {"src": i, "event": event_json[e], "dst": j} for i, e, j in g.transitions
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def export_graph(g: StateGraph, format: str) -> str:
    if format == "dot":
        return to_dot(g)
    if format == "json":
        return to_json_graph(g)
    raise ValueError(f"unknown export format {format!r}")
