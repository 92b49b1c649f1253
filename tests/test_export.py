"""The export's node attributes against their Configuration-level reference.

`export._nodes` joins each label from per-local parts read off the state's
row and decodes only the graph's ends, the states with no transition, for
`is_terminal`; these tests compare it with the decoded reference, count its
decodes and renders and pin its premise: every terminal state is an end.
"""

import io

import pytest

import conftest
from mapmerge import export
from mapmerge.explorer import explore, find_deadlocks
from mapmerge.world import Model, initial_config, is_terminal

from conftest import DEMOTE_ON_MERGE_MUTANT, REPLACE_SET_MUTANT, variant
from graph_reference import partition_label, states
from test_successors import VARIANTS

# Terminal states per variant today: a gate that admits no state loses them.
TERMINALS = {"default": 1, "harness=False": 1, "merge_set_max=2": 1}


@pytest.mark.parametrize(
    "name, spec",
    [*VARIANTS.items(), ("demote_on_merge", DEMOTE_ON_MERGE_MUTANT), ("replace_set", REPLACE_SET_MUTANT)],
    ids=[*VARIANTS, "demote_on_merge", "replace_set"],
)
def test_node_attributes_match_the_configuration_reference(name, spec):
    with variant(3, spec) as c0:
        g = explore(c0, checks=[])
        got = list(export._nodes(g, str, range(g.state_count), (False, True)))
        want = [(i, partition_label(c), is_terminal(c)) for i, c in enumerate(states(g))]
    assert got == want
    if name in TERMINALS:
        assert sum(t for _, _, t in got) == TERMINALS[name]
    assert any(label.count(":") >= 2 for _, label, _ in got)  # some label names two active leaders


MODELS = {**VARIANTS, **{k: v for k, v in vars(conftest).items() if k.endswith("_MUTANT")}}


@pytest.mark.parametrize(
    "n, spec, bound",
    [*((n, spec, {}) for n in (2, 3) for spec in MODELS.values()), (3, {}, {"max_depth": 4})],
    ids=[*(f"n={n}-{name}" for n in (2, 3) for name in MODELS), "n=3-default-max_depth=4"],
)
def test_every_end_is_terminal_deadlocked_or_cut(n, spec, bound):
    # The export decodes only the ends for is_terminal: no terminal state has a transition.
    with variant(n, spec) as c0:
        g = explore(c0, checks=[], **bound)
        ends = list(g.ends())
        terminal = {i for i, c in enumerate(states(g)) if is_terminal(c)}
        deadlocks = set(find_deadlocks(g))
    assert g.complete == (not bound)
    assert terminal <= set(ends)
    for i in ends:
        assert (i in terminal) + (i in deadlocks) + (i in g.truncated) == 1


@pytest.mark.parametrize("format", ["json", "dot"])
def test_export_decodes_only_the_graph_ends(monkeypatch, format):
    g = explore(initial_config(3), checks=[])
    ends = len(list(g.ends()))
    decodes = 0
    decode = Model.decode

    def counted(self, code):
        nonlocal decodes
        decodes += 1
        return decode(self, code)

    monkeypatch.setattr(Model, "decode", counted)
    export.export_graph(g, format, io.StringIO())
    assert decodes == ends == 1  # the terminal state, of 1,879


def test_each_distinct_label_is_rendered_once():
    # The memo in _nodes: 1,879 states at n=3 render only their distinct partition labels.
    g = explore(initial_config(3), checks=[])
    rendered = []
    nodes = export._nodes(g, lambda s: rendered.append(s) or s, range(g.state_count), (False, True))
    labels = [label for _, label, _ in nodes]
    assert len(labels) == g.state_count > len(rendered)
    assert sorted(rendered) == sorted({partition_label(c) for c in states(g)}) == sorted(set(labels))
