"""The event alphabet: every protocol and harness event, plus the
synchronization sets that say which processes must jointly take each event."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple, Union

from .ids import AgentId


class InvalidEventError(ValueError):
    """Raised for malformed events, events outside the universe, and traces
    with events outside their alphabet."""


class ProcessRef(NamedTuple):
    """Reference to one process: ('agent', id) or ('leader', id)."""

    kind: str
    id: AgentId

    def __str__(self) -> str:
        return f"{self.kind.capitalize()}({self.id})"


def Agent(a: AgentId) -> ProcessRef:
    return ProcessRef("agent", a)


def Leader(a: AgentId) -> ProcessRef:
    return ProcessRef("leader", a)


@dataclass(frozen=True, slots=True)
class RequestMerge:
    agent: AgentId
    leader: AgentId
    merge_set: frozenset


@dataclass(frozen=True, slots=True)
class RequestLeader:
    req_leader: AgentId
    target_agent: AgentId


@dataclass(frozen=True, slots=True)
class ReplyLeader:
    target_agent: AgentId
    req_leader: AgentId
    its_leader: AgentId


@dataclass(frozen=True, slots=True)
class BeginMerge:
    leader: AgentId


@dataclass(frozen=True, slots=True)
class ConfirmMerge:
    req_leader: AgentId
    other_leader: AgentId


@dataclass(frozen=True, slots=True)
class MergeCancelled:
    req_leader: AgentId
    other_leader: AgentId


@dataclass(frozen=True, slots=True)
class MergeConfirmed:
    req_leader: AgentId
    other_leader: AgentId
    other_agent_set: frozenset


@dataclass(frozen=True, slots=True)
class MergeMaps:
    req_leader: AgentId
    other_leader: AgentId


@dataclass(frozen=True, slots=True)
class MergeCompleted:
    req_leader: AgentId
    other_leader: AgentId
    union_set: frozenset


@dataclass(frozen=True, slots=True)
class UpdateIdentifiedSameGroup:
    leader: AgentId
    agent: AgentId
    new_set: frozenset


@dataclass(frozen=True, slots=True)
class UpdateIdentified:
    leader: AgentId
    agent: AgentId
    new_set: frozenset


@dataclass(frozen=True, slots=True)
class RemoveReasoningAbout:
    req_agent: AgentId
    other_agent: AgentId


@dataclass(frozen=True, slots=True)
class Done:
    leader: AgentId


@dataclass(frozen=True, slots=True)
class Terminate:
    leader: AgentId


EventLabel = Union[
    RequestMerge,
    RequestLeader,
    ReplyLeader,
    BeginMerge,
    ConfirmMerge,
    MergeCancelled,
    MergeConfirmed,
    MergeMaps,
    MergeCompleted,
    UpdateIdentifiedSameGroup,
    UpdateIdentified,
    RemoveReasoningAbout,
    Done,
    Terminate,
]

# Wire names, fixed: these spellings are the trace-file and scenario-file
# contract.
EVENT_TYPES: dict[str, type] = {
    "request_merge": RequestMerge,
    "request_leader": RequestLeader,
    "reply_leader": ReplyLeader,
    "begin_merge": BeginMerge,
    "confirm_merge": ConfirmMerge,
    "merge_cancelled": MergeCancelled,
    "merge_confirmed": MergeConfirmed,
    "merge_maps": MergeMaps,
    "merge_completed": MergeCompleted,
    "update_identified_same_group": UpdateIdentifiedSameGroup,
    "update_identified": UpdateIdentified,
    "remove_reasoning_about": RemoveReasoningAbout,
    "done": Done,
    "terminate": Terminate,
}

TYPE_NAMES: dict[type, str] = {cls: name for name, cls in EVENT_TYPES.items()}
_TYPE_RANK: dict[type, int] = {cls: i for i, cls in enumerate(EVENT_TYPES.values())}

# Events internal to one process; hidden by default in divergence checks and
# invisible to all-visible trace queries.
INTERNAL_TYPES: tuple[type, ...] = (BeginMerge,)


def is_internal(e: EventLabel) -> bool:
    return isinstance(e, INTERNAL_TYPES)


def event_ids(e: EventLabel) -> set[AgentId]:
    """Every agent id occurring anywhere in the payload."""
    out: set[AgentId] = set()
    for f in fields(e):
        v = getattr(e, f.name)
        if isinstance(v, AgentId):
            out.add(v)
        elif isinstance(v, frozenset):
            out.update(v)
    return out


def validate_event(e: EventLabel, n: int) -> None:
    """Check all payload ids fall inside the n-agent universe."""
    for a in event_ids(e):
        if not 1 <= a.index <= n:
            raise InvalidEventError(f"{label(e)} names {a}, outside universe of size {n}")
    if isinstance(e, RequestMerge) and not e.merge_set:
        raise InvalidEventError("request_merge with empty merge_set")


def participants(e: EventLabel) -> frozenset[ProcessRef]:
    """The set of processes that must jointly take `e` (rendezvous set).

    Note: remove_reasoning_about is additionally gated by the map leader
    currently handling the named agent's request; that leader is resolved
    from the configuration by the world model, not from the label.
    """
    if isinstance(e, RequestMerge):
        return frozenset({Agent(e.agent), Leader(e.leader)})
    if isinstance(e, RequestLeader):
        return frozenset({Leader(e.req_leader), Agent(e.target_agent)})
    if isinstance(e, ReplyLeader):
        return frozenset({Agent(e.target_agent), Leader(e.req_leader)})
    if isinstance(e, BeginMerge):
        return frozenset({Leader(e.leader)})
    if isinstance(e, (ConfirmMerge, MergeCancelled, MergeConfirmed, MergeMaps, MergeCompleted)):
        return frozenset({Leader(e.req_leader), Leader(e.other_leader)})
    if isinstance(e, (UpdateIdentifiedSameGroup, UpdateIdentified)):
        return frozenset({Leader(e.leader), Agent(e.agent)})
    if isinstance(e, RemoveReasoningAbout):
        return frozenset({Agent(e.req_agent)})
    if isinstance(e, (Done, Terminate)):
        return frozenset({Leader(e.leader)})
    raise InvalidEventError(f"unknown event {e!r}")


def _field_key(v):
    """An AgentId by its index, a frozenset of them as its sorted indices; a field always holds one kind."""
    return v.index if isinstance(v, AgentId) else tuple(sorted(a.index for a in v))


def sort_key(e: EventLabel):
    """Canonical total order on labels; fixes successor enumeration order."""
    return (_TYPE_RANK[type(e)], tuple(_field_key(getattr(e, f.name)) for f in fields(e)))


def label(e: EventLabel) -> str:
    """Compact dotted rendering, e.g. confirm_merge.A1.A2 or
    merge_completed.A1.A2.{A1,A2}."""
    parts = [TYPE_NAMES[type(e)]]
    for f in fields(e):
        v = getattr(e, f.name)
        if isinstance(v, frozenset):
            parts.append("{" + ",".join(a.name for a in sorted(v)) + "}")
        else:
            parts.append(str(v))
    return ".".join(parts)


def to_json(e: EventLabel) -> dict:
    """JSON object with a "type" tag and named payload fields."""
    d = {"type": TYPE_NAMES[type(e)]}
    for f in fields(e):
        v = getattr(e, f.name)
        if isinstance(v, frozenset):
            d[f.name] = [a.name for a in sorted(v)]
        else:
            d[f.name] = v.name
    return d


def from_json(d: dict) -> EventLabel:
    """Parse one event object; raises InvalidEventError on malformed input."""
    if not isinstance(d, dict) or not isinstance(d.get("type"), str):
        raise InvalidEventError(f"event object must carry a string 'type' field: {d!r}")
    cls = EVENT_TYPES.get(d["type"])
    if cls is None:
        raise InvalidEventError(f"unknown event type {d['type']!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in d:
            raise InvalidEventError(f"{d['type']}: missing field {f.name!r}")
        v = d[f.name]
        try:
            if f.type == "frozenset":
                kwargs[f.name] = frozenset(AgentId.parse(x) for x in v)
            else:
                kwargs[f.name] = AgentId.parse(v)
        except (TypeError, ValueError) as exc:
            raise InvalidEventError(f"{d['type']}: bad field {f.name!r}: {exc}") from exc
    extra = set(d) - {"type"} - {f.name for f in fields(cls)}
    if extra:
        raise InvalidEventError(f"{d['type']}: unexpected fields {sorted(extra)}")
    return cls(**kwargs)
