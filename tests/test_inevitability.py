"""explorer.check_inevitable, one early-exit Tarjan search over the graph's
offsets and targets, against a reverse breadth-first search from the goal
states on random graphs; and what the search holds and reads on an explored
graph."""

import tracemalloc
from array import array
from collections import deque

from hypothesis import example, given, settings, strategies as st

from mapmerge.explorer import check_inevitable, explore
from mapmerge.world import all_maps_merged, initial_config


class Csr:
    """What check_inevitable reads of a StateGraph, over the successor lists
    `succs`: state i is the int i, and the path to it is [i]."""

    complete = True

    def __init__(self, succs: list):
        self.state_count = len(succs)
        self.offsets, self.targets = array("I", [0]), array("I")
        for js in succs:
            self.targets.extend(js)
            self.offsets.append(len(self.targets))

    def state(self, i: int) -> int:
        return i

    def path_to(self, i: int) -> list:
        return [i]


def lowest_unreaching(succs: list, goals: set):
    """The lowest state from which no goal state is reachable, or None: a
    reverse breadth-first search from the goal states."""
    preds = [[] for _ in succs]
    for i, js in enumerate(succs):
        for j in js:
            preds[j].append(i)
    reach, queue = set(goals), deque(goals)
    while queue:
        for i in preds[queue.popleft()]:
            if i not in reach:
                reach.add(i)
                queue.append(i)
    return next((i for i in range(len(succs)) if i not in reach), None)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 30))
    succs = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=4), min_size=n, max_size=n))
    return succs, draw(st.sets(st.integers(0, n - 1), max_size=3))


@settings(max_examples=1000, deadline=None, database=None)
@given(graphs())
@example(([[0]], set()))  # a self-loop and no goal state
@example(([[0], [1]], {1}))  # two self-loops, one on a goal state
@example(([[1], [2], [1]], {0}))  # a cycle entered through a back edge, which cannot return to the goal
@example(([[1], [2], [1, 3], []], {3}))  # the same cycle with an exit to the goal
@example(([[1, 3], [2], [1], [4], [3, 0]], {4}))  # a finished SCC that cannot reach the goal, below one that can
@example(([[], [0], [1, 3], [2]], {0}))  # every state reaches the goal through the lowest
def test_check_inevitable_matches_a_reverse_search(case):
    succs, goals = case
    r = check_inevitable(Csr(succs), goals.__contains__)
    lowest = lowest_unreaching(succs, goals)
    assert r.value is (lowest is None)
    assert r.counterexample == (None if lowest is None else [lowest])


def test_check_inevitable_holds_under_16_bytes_per_state():
    # A byte of verdict and a Tarjan-stack height per state, and the search's
    # stacks: 10 B per state here, where a reverse index with its per-state
    # offsets held 34.5.  The goal is read once.
    g = explore(initial_config(3, merge_set_max=2), checks=[])
    reads = []
    tracemalloc.start()
    try:
        r = check_inevitable(g, lambda c: reads.append(c) or all_maps_merged(c))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (g.state_count, r.value, len(reads)) == (8929, True, 1)
    assert peak / g.state_count < 16
