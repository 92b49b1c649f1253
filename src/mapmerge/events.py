"""The event alphabet: every protocol and harness event, plus the
synchronization sets that say which processes must jointly take each event."""

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


def _eq(a, b) -> bool:
    return type(a) is type(b) and tuple.__eq__(a, b)


def typed_eq(cls: type) -> type:
    """`cls`, a NamedTuple, equal only to values of its own type: without this
    ConfirmMerge(A1, A2) == MergeMaps(A1, A2), as their tuples are equal.  A
    value still hashes as the tuple of its fields."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _eq, lambda a, b: not _eq(a, b), tuple.__hash__
    return cls


@typed_eq
class RequestMerge(NamedTuple):
    agent: AgentId
    leader: AgentId
    merge_set: frozenset


@typed_eq
class RequestLeader(NamedTuple):
    req_leader: AgentId
    target_agent: AgentId


@typed_eq
class ReplyLeader(NamedTuple):
    target_agent: AgentId
    req_leader: AgentId
    its_leader: AgentId


@typed_eq
class BeginMerge(NamedTuple):
    leader: AgentId


@typed_eq
class ConfirmMerge(NamedTuple):
    req_leader: AgentId
    other_leader: AgentId


@typed_eq
class MergeCancelled(NamedTuple):
    req_leader: AgentId
    other_leader: AgentId


@typed_eq
class MergeConfirmed(NamedTuple):
    req_leader: AgentId
    other_leader: AgentId
    other_agent_set: frozenset


@typed_eq
class MergeMaps(NamedTuple):
    req_leader: AgentId
    other_leader: AgentId


@typed_eq
class MergeCompleted(NamedTuple):
    req_leader: AgentId
    other_leader: AgentId
    union_set: frozenset


@typed_eq
class UpdateIdentifiedSameGroup(NamedTuple):
    leader: AgentId
    agent: AgentId
    new_set: frozenset


@typed_eq
class UpdateIdentified(NamedTuple):
    leader: AgentId
    agent: AgentId
    new_set: frozenset


@typed_eq
class RemoveReasoningAbout(NamedTuple):
    req_agent: AgentId
    other_agent: AgentId


@typed_eq
class Done(NamedTuple):
    leader: AgentId


@typed_eq
class Terminate(NamedTuple):
    leader: AgentId


# One row per event type, in canonical order: its wire name, its class and
# its rendezvous set, as (process kind, field naming the process) pairs.  The
# wire names are fixed: their spellings are the trace-file and scenario-file
# contract, and the row order is each type's rank in `sort_key`.
# remove_reasoning_about is also taken by the map leader refusing the named
# agent's request, which the label does not name: the world model takes the
# first leader whose `processes.leader_moves` offer it.
_EVENTS: tuple[tuple[str, type, tuple[tuple[str, str], ...]], ...] = (
    ("request_merge", RequestMerge, (("agent", "agent"), ("leader", "leader"))),
    ("request_leader", RequestLeader, (("leader", "req_leader"), ("agent", "target_agent"))),
    ("reply_leader", ReplyLeader, (("agent", "target_agent"), ("leader", "req_leader"))),
    ("begin_merge", BeginMerge, (("leader", "leader"),)),
    ("confirm_merge", ConfirmMerge, (("leader", "req_leader"), ("leader", "other_leader"))),
    ("merge_cancelled", MergeCancelled, (("leader", "req_leader"), ("leader", "other_leader"))),
    ("merge_confirmed", MergeConfirmed, (("leader", "req_leader"), ("leader", "other_leader"))),
    ("merge_maps", MergeMaps, (("leader", "req_leader"), ("leader", "other_leader"))),
    ("merge_completed", MergeCompleted, (("leader", "req_leader"), ("leader", "other_leader"))),
    ("update_identified_same_group", UpdateIdentifiedSameGroup, (("leader", "leader"), ("agent", "agent"))),
    ("update_identified", UpdateIdentified, (("leader", "leader"), ("agent", "agent"))),
    ("remove_reasoning_about", RemoveReasoningAbout, (("agent", "req_agent"),)),
    ("done", Done, (("leader", "leader"),)),
    ("terminate", Terminate, (("leader", "leader"),)),
)
EVENT_TYPES: dict[str, type] = {name: cls for name, cls, _ in _EVENTS}
EventLabel = Union[tuple(EVENT_TYPES.values())]

TYPE_NAMES: dict[type, str] = {cls: name for name, cls, _ in _EVENTS}
_TYPE_RANK: dict[type, int] = {cls: i for i, (_, cls, _) in enumerate(_EVENTS)}
_PARTIES: dict[type, tuple[tuple[str, str], ...]] = {cls: parties for _, cls, parties in _EVENTS}

# Events internal to one process; hidden by default in divergence checks and
# invisible to all-visible trace queries.
INTERNAL_TYPES: tuple[type, ...] = (BeginMerge,)


def is_internal(e: EventLabel) -> bool:
    return isinstance(e, INTERNAL_TYPES)


def event_ids(e: EventLabel) -> set[AgentId]:
    """Every agent id occurring anywhere in the payload."""
    out: set[AgentId] = set()
    for v in e:
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
    """The set of processes that must jointly take `e` (rendezvous set)."""
    parties = _PARTIES.get(type(e))
    if parties is None:
        raise InvalidEventError(f"unknown event {e!r}")
    return frozenset(ProcessRef(kind, getattr(e, field)) for kind, field in parties)


def sort_key(e: EventLabel) -> bytes:
    """Canonical total order on labels; fixes successor enumeration order.
    The bytes order as the tuple (type rank, each field's sorted agent indices): each field ends in a 0, below
    every index, so a field sorts before its extensions ({A1} before {A1,A2})."""
    key = [_TYPE_RANK[type(e)]]
    for v in e:
        key += (v.index,) if isinstance(v, AgentId) else sorted(a.index for a in v)
        key.append(0)
    return bytes(key)


def label(e: EventLabel) -> str:
    """Compact dotted rendering, e.g. confirm_merge.A1.A2 or
    merge_completed.A1.A2.{A1,A2}."""
    parts = [TYPE_NAMES[type(e)]]
    for v in e:
        if isinstance(v, frozenset):
            parts.append("{" + ",".join(a.name for a in sorted(v)) + "}")
        else:
            parts.append(str(v))
    return ".".join(parts)


def to_json(e: EventLabel) -> dict:
    """JSON object with a "type" tag and named payload fields."""
    d = {"type": TYPE_NAMES[type(e)]}
    for name, v in zip(e._fields, e):
        d[name] = [a.name for a in sorted(v)] if isinstance(v, frozenset) else v.name
    return d


def reject_repeated_keys(pairs: list) -> dict:
    """`json.loads`' object_pairs_hook for every input file: a key that an
    object repeats is an error, so no reading hangs on which one comes last."""
    d = {}
    for k, v in pairs:
        if k in d:
            raise ValueError(f"JSON object repeats the key {k!r}")
        d[k] = v
    return d


def from_json(d: dict) -> EventLabel:
    """Parse one event object; raises InvalidEventError on malformed input."""
    if not isinstance(d, dict) or not isinstance(d.get("type"), str):
        raise InvalidEventError(f"event object must carry a string 'type' field: {d!r}")
    cls = EVENT_TYPES.get(d["type"])
    if cls is None:
        raise InvalidEventError(f"unknown event type {d['type']!r}")
    kwargs = {}
    for name, t in cls.__annotations__.items():
        if name not in d:
            raise InvalidEventError(f"{d['type']}: missing field {name!r}")
        v = d[name]
        if t is frozenset and not isinstance(v, list):
            raise InvalidEventError(f"{d['type']}: field {name!r} must be a JSON array of agent ids, got {v!r}")
        try:
            kwargs[name] = frozenset(map(AgentId.parse, v)) if t is frozenset else AgentId.parse(v)
        except (TypeError, ValueError) as exc:
            raise InvalidEventError(f"{d['type']}: bad field {name!r}: {exc}") from exc
    extra = set(d) - {"type"} - set(cls._fields)
    if extra:
        raise InvalidEventError(f"{d['type']}: unexpected fields {sorted(extra)}")
    return cls(**kwargs)
