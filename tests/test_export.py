"""The export's node attributes against their Configuration-level reference.

`export._nodes` joins each label from per-local parts read off the state's
row and decodes a state for `is_terminal` only where an active leader holds
the whole team; these tests compare it with the decoded reference and count
its decodes.
"""

import io

import pytest

from mapmerge import export
from mapmerge.explorer import explore
from mapmerge.processes import full_set
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


@pytest.mark.parametrize("format", ["json", "dot"])
def test_export_decodes_only_states_with_a_whole_team_leader(monkeypatch, format):
    g = explore(initial_config(3), checks=[])
    whole = sum(any(l.active and l.agent_set == full_set(3) for l in c.leaders) for c in states(g))
    decodes = 0
    decode = Model.decode

    def counted(self, code):
        nonlocal decodes
        decodes += 1
        return decode(self, code)

    monkeypatch.setattr(Model, "decode", counted)
    export.export_graph(g, format, io.StringIO())
    assert decodes == whole
    assert 0 < decodes <= g.state_count // 50  # 21 of 1,879
