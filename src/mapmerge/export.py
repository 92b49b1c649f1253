"""Deterministic DOT and JSON serializations of explored state graphs,
streamed from the graph's arrays to a text file in chunks of 4,096 pieces
that C-level iterators (map, zip, repeat, chain) interleave, with no Python
frame per state or transition.  Besides the graph, a writer holds one string
per label and one rendered string per distinct partition label, joined from
per-local parts read off the rows' leader columns in place; only the graph's
ends, the states with no transition, are decoded, for `is_terminal`.

The JSON schema is versioned as "mapmerge-graph/1" and documented in
docs/graph_schema.md.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, Optional, TextIO

from .events import label, to_json
from .explorer import StateGraph
from .processes import LeaderProcState
from .world import is_terminal

GRAPH_SCHEMA = "mapmerge-graph/1"


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _write(out: TextIO, pieces: Iterator[str]) -> None:
    for chunk in iter(lambda: "".join(islice(pieces, 4096)), ""):
        out.write(chunk)


def _nodes(g: StateGraph, render: Callable[[str], str], ids: Iterable, flags: tuple):
    """(the next of ids; render(partition label); flags[terminal]) of each state.
    The label joins the parts of the state's leader ints, read off the leader columns of the rows, and each
    distinct label is rendered once.  A terminal state has no transition, so only the graph's ends are decoded,
    for `is_terminal`."""
    m, n, rows = g.model, g.model.n, memoryview(g.rows)
    terminal = {i for i in g.ends() if is_terminal(g.state(i))}
    # By local int: an active leader's label part, or "".
    part = [f"{s.id}:{{{','.join(a.name for a in sorted(s.agent_set))}}}" if isinstance(s, LeaderProcState) and s.active
            else "" for s in m.locals]
    columns = [map(part.__getitem__, rows[slot :: 2 * n]) for slot in range(n, 2 * n)]  # by leader slot, in place
    labels = map(cache(lambda parts: render(" ".join(filter(None, parts)) or "(no active leaders)")), zip(*columns))
    return zip(ids, labels, map(flags.__getitem__, map(terminal.__contains__, range(g.state_count))))


def _edges(g: StateGraph, source: Callable[[int], str], event: list, lead: Optional[Iterator[str]] = None):
    """The pieces of every transition, in order: source(i), built once per source state i, the target idx
    and event[label int]; or, given a lead, the next of lead, the target idx, event[label int] and source(i)."""
    sources = chain.from_iterable(map(repeat, map(source, range(g.state_count)), g.degrees()))
    targets, events = map(str, g.targets), map(event.__getitem__, g.events)
    return chain.from_iterable(zip(sources, targets, events) if lead is None else zip(lead, targets, events, sources))


def to_dot(g: StateGraph, out: TextIO) -> None:
    """GraphViz rendering: nodes carry the leader partition, edges the event
    label.  Output is byte-stable for a given graph."""
    head = "digraph mapmerge {\n  rankdir=LR;\n  node [shape=box];\n"
    if not g.complete:
        head += '  label="incomplete: a bound cut the search";\n'
    ids = map('  s{0} [label="{0}: '.format, range(g.state_count))
    nodes = _nodes(g, _dot_escape, ids, ('"];\n', '", peripheries=2];\n'))
    node0, label0, end0 = next(nodes)
    node0 = (node0, label0, '", style=bold' + end0[1:])  # the initial state is bold
    edges = _edges(g, "  s{} -> s".format, [f' [label="{_dot_escape(label(e))}"];\n' for e in g.model.labels])
    _write(out, chain([head], node0, chain.from_iterable(nodes), edges, ["}\n"]))


def to_json_graph(g: StateGraph, out: TextIO) -> None:
    """JSON rendering per the mapmerge-graph/1 schema: the bytes of
    json.dumps(document, sort_keys=True, separators=(",", ":")) + "\\n".
    Each state's and each transition's closing brace opens the next piece."""
    head = (
        f'{{"agents":{g.model.n},"complete":{json.dumps(g.complete)},"schema":{json.dumps(GRAPH_SCHEMA)},'
        f'"state_count":{g.state_count},"states":['
    )
    ids = map('},{"id":%d,"initial":false,"label":'.__mod__, range(1, g.state_count))
    ids = chain(['{"id":0,"initial":true,"label":'], ids)
    nodes = _nodes(g, json.dumps, ids, (',"terminal":false', ',"terminal":true'))
    middle = f'}}],"transition_count":{g.transition_count},"transitions":['
    event = [f',"event":{json.dumps(to_json(e), sort_keys=True, separators=(",", ":"))},"src":' for e in g.model.labels]
    edges = _edges(g, str, event, chain(['{"dst":'], repeat('},{"dst":')))
    tail = "}" * (g.transition_count > 0) + "]}\n"
    _write(out, chain([head], chain.from_iterable(nodes), [middle], edges, [tail]))


def export_graph(g: StateGraph, format: str, out: TextIO) -> None:
    if format == "dot":
        return to_dot(g, out)
    if format == "json":
        return to_json_graph(g, out)
    raise ValueError(f"unknown export format {format!r}")
