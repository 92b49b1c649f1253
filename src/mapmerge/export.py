"""Deterministic DOT and JSON serializations of explored state graphs,
streamed from the graph's arrays to a text file in chunks of 4,096 pieces.
Node labels are joined from per-local parts read off each state's row, not
from decoded states; the bytes are those the decoded labels gave.

The JSON schema is versioned as "mapmerge-graph/1" and documented in
docs/graph_schema.md.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from typing import Callable, Iterator, TextIO

from .events import label, to_json
from .explorer import StateGraph
from .processes import LeaderProcState, full_set
from .world import is_terminal

GRAPH_SCHEMA = "mapmerge-graph/1"


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _write(out: TextIO, pieces: Iterator[str]) -> None:
    for chunk in iter(lambda: "".join(islice(pieces, 4096)), ""):
        out.write(chunk)


def _nodes(g: StateGraph, render: Callable[[str], str] = str) -> Iterator[tuple]:
    """(idx, render(partition label), terminal) of each state, read from its row.
    The label joins the parts of its leader ints, and each distinct label is
    rendered once.  is_terminal is False unless an active leader holds the
    whole team, so only a state with such a leader is decoded for it."""
    m, n = g.model, g.initial.params.n
    part, whole = [], []  # by local int: an active leader's label part or "", and whether it holds the whole team
    for s in m.locals:
        on = isinstance(s, LeaderProcState) and s.active
        part.append(f"{s.id}:{{{','.join(a.name for a in sorted(s.agent_set))}}}" if on else "")
        whole.append(on and s.agent_set == full_set(n))
    rendered: dict = {}  # label -> render(label)
    for i in range(g.state_count):
        code = g.code(i)
        p = " ".join(filter(None, map(part.__getitem__, code[n:]))) or "(no active leaders)"
        terminal = any(map(whole.__getitem__, code[n:])) and is_terminal(m.decode(code))
        yield i, rendered.get(p) or rendered.setdefault(p, render(p)), terminal


def to_dot(g: StateGraph, out: TextIO) -> None:
    """GraphViz rendering: nodes carry the leader partition, edges the event
    label.  Output is byte-stable for a given graph."""
    quoted = [f'"{_dot_escape(label(e))}"' for e in g.model.labels]
    head = "digraph mapmerge {\n  rankdir=LR;\n  node [shape=box];\n"
    nodes = (
        f'  s{i} [label="{i}: {p}"{", style=bold" * (i == 0)}{", peripheries=2" * t}];\n'
        for i, p, t in _nodes(g, _dot_escape)
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
        f'{"," * (i > 0)}{{"id":{i},"initial":{flag[i == 0]},"label":{p},"terminal":{flag[t]}}}'
        for i, p, t in _nodes(g, json.dumps)
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
