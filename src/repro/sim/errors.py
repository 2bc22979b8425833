"""Exception hierarchy for the simulator."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulator errors."""


class ConfigurationError(SimulationError):
    """Raised when a simulation or component is configured inconsistently."""


class SimulationFailed(SimulationError):
    """Raised by every run call after one raised (a raise ends the run);
    ``__cause__`` is that exception, kept as ``sim.failed``."""


class ProtocolError(SimulationError):
    """Raised when a protocol layer receives a message or call it cannot handle."""
