"""Deterministic DOT and JSON serializations of explored state graphs,
streamed from the graph's arrays to a text file in chunks of 4,096 pieces.

The JSON schema is versioned as "mapmerge-graph/1" and documented in
docs/graph_schema.md.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from typing import Iterator, TextIO

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


def _write(out: TextIO, pieces: Iterator[str]) -> None:
    for chunk in iter(lambda: "".join(islice(pieces, 4096)), ""):
        out.write(chunk)


def _nodes(g: StateGraph) -> Iterator[tuple]:
    """(idx, partition label, terminal) of each state."""
    for i in range(g.state_count):
        c = g.state(i)
        yield i, partition_label(c), is_terminal(c)


def to_dot(g: StateGraph, out: TextIO) -> None:
    """GraphViz rendering: nodes carry the leader partition, edges the event
    label.  Output is byte-stable for a given graph."""
    quoted = [_dot_quote(label(e)) for e in g.model.labels]
    head = "digraph mapmerge {\n  rankdir=LR;\n  node [shape=box];\n"
    nodes = (
        f"  s{i} [label={_dot_quote(f'{i}: {p}')}{', style=bold' * (i == 0)}{', peripheries=2' * t}];\n"
        for i, p, t in _nodes(g)
    )
    edges = (f"  s{i} -> s{j} [label={quoted[ev]}];\n" for i, ev, j in g.edges())
    _write(out, chain([head], nodes, edges, ["}\n"]))


def to_json_graph(g: StateGraph, out: TextIO) -> None:
    """JSON rendering per the mapmerge-graph/1 schema: the bytes of
    json.dumps(document, sort_keys=True, separators=(",", ":")) + "\\n"."""
    flag = ("false", "true")
    event = [json.dumps(to_json(e), sort_keys=True, separators=(",", ":")) for e in g.model.labels]
    head = (
        f'{{"agents":{g.initial.params.n},"complete":{flag[g.complete]},"schema":{json.dumps(GRAPH_SCHEMA)},'
        f'"state_count":{g.state_count},"states":['
    )
    states = (
        f'{"," * (i > 0)}{{"id":{i},"initial":{flag[i == 0]},"label":{json.dumps(p)},"terminal":{flag[t]}}}'
        for i, p, t in _nodes(g)
    )
    middle = f'],"transition_count":{g.transition_count},"transitions":['
    edges = (f'{"," * (k > 0)}{{"dst":{j},"event":{event[ev]},"src":{i}}}' for k, (i, ev, j) in enumerate(g.edges()))
    _write(out, chain([head], states, [middle], edges, ["]}\n"]))


def export_graph(g: StateGraph, format: str, out: TextIO) -> None:
    if format == "dot":
        return to_dot(g, out)
    if format == "json":
        return to_json_graph(g, out)
    raise ValueError(f"unknown export format {format!r}")
