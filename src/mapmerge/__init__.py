"""Executable model of the LFC map-merge coordination protocol, with an
explicit-state explorer for its safety and liveness properties."""

__version__ = "0.1.0"
