"""Grid maps with private origins and the translation algebra used to merge
them into one frame.  Every agent starts believing it is at (0,0); merging
re-expresses one map's cells in the other map's frame.

Frames differ by translation only: the contest grid gives all agents the
same orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .ids import AgentId


class Offset(NamedTuple):
    """Translation between two map frames, in grid cells."""

    dx: int
    dy: int


IDENTITY = Offset(0, 0)


def compose(a: Offset, b: Offset) -> Offset:
    return Offset(a.dx + b.dx, a.dy + b.dy)


def invert(o: Offset) -> Offset:
    return Offset(-o.dx, -o.dy)


def transform(p: tuple, o: Offset) -> tuple:
    """Translate a point by an offset."""
    return (p[0] + o.dx, p[1] + o.dy)


class MergeConflictError(ValueError):
    """Two maps disagree on overlapping cells; merging would corrupt them."""

    def __init__(self, conflicts: list):
        self.conflicts = conflicts
        cells = ", ".join(str(c) for c in conflicts[:5])
        more = "" if len(conflicts) <= 5 else f" (+{len(conflicts) - 5} more)"
        super().__init__(f"conflicting cell values at {cells}{more}")


@dataclass(frozen=True)
class GridMap:
    """Finite set of known cells in one agent's coordinate frame."""

    cells: dict
    owner_frame: AgentId

    def __post_init__(self):
        object.__setattr__(self, "cells", dict(self.cells))

    def shifted(self, o: Offset) -> "GridMap":
        return GridMap({transform(p, o): v for p, v in self.cells.items()}, self.owner_frame)


def merge_grids(a: GridMap, b: GridMap, offset_b_to_a: Offset) -> GridMap:
    """Union of a's cells with b's cells re-expressed in a's frame.

    Overlapping cells must agree after transformation; conflicts are hard
    errors, never overwritten.
    """
    merged = dict(a.cells)
    conflicts = []
    for p, v in b.cells.items():
        q = transform(p, offset_b_to_a)
        if q in merged and merged[q] != v:
            conflicts.append(q)
        else:
            merged[q] = v
    if conflicts:
        raise MergeConflictError(sorted(conflicts))
    return GridMap(merged, a.owner_frame)
