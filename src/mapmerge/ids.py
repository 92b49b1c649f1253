"""Agent identities and the priority order used to arbitrate merges."""

from __future__ import annotations

import re
from functools import cache
from typing import NamedTuple


class AgentId(NamedTuple):
    """Symbolic agent identity, totally ordered by its numeric index."""

    index: int

    @property
    def name(self) -> str:
        return f"A{self.index}"

    def __repr__(self) -> str:
        return self.name

    @classmethod
    def parse(cls, text: str) -> "AgentId":
        m = re.fullmatch(r"A([1-9][0-9]*)", text)
        if m is None:
            raise ValueError(f"not an agent id: {text!r}")
        return cls(int(m.group(1)))


@cache
def universe(n: int) -> tuple[AgentId, ...]:
    """All agent ids A1..An."""
    return tuple(AgentId(i) for i in range(1, n + 1))


def priority(a: AgentId, b: AgentId) -> AgentId:
    """The higher-priority of two agents: lowest index wins; ties return `a`."""
    return a if a.index <= b.index else b
