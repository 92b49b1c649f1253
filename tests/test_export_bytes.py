"""The export writers' bytes against whole-document references, and their streaming.

`export.to_json_graph` and `to_dot` write the document as a stream of small
pieces; these tests compare the bytes with a document built from decoded
states, on graphs with and without transitions and on a truncated graph,
and check that the stream reaches the file in bounded chunks.
"""

import io
import json

import pytest

from mapmerge import export
from mapmerge.events import label, to_json
from mapmerge.explorer import explore
from mapmerge.world import initial_config, is_terminal

from conftest import variant
from graph_reference import partition_label, states, transitions
from test_successors import VARIANTS


def json_reference(g) -> str:
    document = {
        "schema": export.GRAPH_SCHEMA,
        "agents": g.model.n,
        "complete": g.complete,
        "state_count": g.state_count,
        "transition_count": g.transition_count,
        "states": [
            {"id": i, "label": partition_label(c), "initial": i == 0, "terminal": is_terminal(c)}
            for i, c in enumerate(states(g))
        ],
        "transitions": [{"src": i, "event": to_json(e), "dst": j} for i, e, j in transitions(g)],
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def dot_reference(g) -> str:
    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph mapmerge {", "  rankdir=LR;", "  node [shape=box];"]
    if not g.complete:
        lines.append('  label="incomplete: a bound cut the search";')
    for i, c in enumerate(states(g)):
        attrs = [f"label={quote(f'{i}: {partition_label(c)}')}"]
        if i == 0:
            attrs.append("style=bold")
        if is_terminal(c):
            attrs.append("peripheries=2")
        lines.append(f"  s{i} [{', '.join(attrs)}];")
    lines += [f"  s{i} -> s{j} [label={quote(label(e))}];" for i, e, j in transitions(g)]
    return "\n".join(lines + ["}", ""])


def written(write, g) -> str:
    out = io.StringIO()
    write(g, out)
    return out.getvalue()


def assert_bytes_match(g):
    assert written(export.to_json_graph, g) == json_reference(g)
    assert written(export.to_dot, g) == dot_reference(g)


@pytest.mark.parametrize("spec", VARIANTS.values(), ids=VARIANTS)
def test_writers_match_the_whole_document(spec):
    with variant(3, spec) as c0:
        g = explore(c0, checks=[])
        assert_bytes_match(g)


@pytest.mark.parametrize("bound", [{"max_states": 1}, {"max_depth": 2}], ids=["max_states=1", "max_depth=2"])
def test_writers_match_the_whole_document_of_a_cut_graph(bound):
    g = explore(initial_config(3), checks=[], **bound)
    assert not g.complete
    assert_bytes_match(g)
    if g.state_count == 1:
        assert '"transitions":[]' in written(export.to_json_graph, g)


class CountingWriter:
    """Keeps the length of each write."""

    def __init__(self):
        self.sizes = []

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        return len(text)


@pytest.mark.parametrize("format", ["json", "dot"])
def test_export_streams_in_bounded_chunks(graph_n3, format):
    out = CountingWriter()
    export.export_graph(graph_n3, format, out)
    assert len(out.sizes) >= 2
    assert max(out.sizes) <= 1 << 20
    assert sum(out.sizes) == len(written(export.to_json_graph if format == "json" else export.to_dot, graph_n3))
