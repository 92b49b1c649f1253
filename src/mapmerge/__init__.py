"""Executable model of the LFC map-merge coordination protocol, with an
explicit-state explorer for its safety and liveness properties."""

from .coordmap import GridMap, MergeConflictError, Offset, compose, invert, merge_grids, transform
from .events import EventLabel, InvalidEventError, participants
from .explorer import (
    ALL_VISIBLE,
    StateGraph,
    TraceQuery,
    check_inevitable,
    explore,
    find_deadlocks,
    find_hidden_divergence,
    has_trace,
)
from .ids import AgentId, priority, universe
from .processes import AgentProcState, LeaderProcState, agent_step, leader_step
from .scenarios import Scenario, builtin_scenarios, check_scenario, load_scenarios
from .world import (
    Configuration,
    ConfigurationError,
    ModelParams,
    RefusedEventError,
    apply_event,
    enabled_events,
    initial_config,
    is_quiescent,
    is_terminal,
)

__version__ = "0.1.0"
