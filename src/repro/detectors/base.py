"""Abstract failure detector interfaces."""

from __future__ import annotations

import abc
from typing import Any

from repro.sim.failures import FailurePattern
from repro.sim.types import ProcessId, Time


class FailureDetectorHistory(abc.ABC):
    """One history ``H``: the value each process would see at each time.

    A history is pure in ``(pid, t)``. One that stops changing says so
    through :meth:`settles`, and the simulation then stops querying it.
    """

    @abc.abstractmethod
    def query(self, pid: ProcessId, t: Time) -> Any:
        """The value output by ``pid``'s detector module at time ``t``."""

    def settles(self) -> tuple[Time, Any] | None:
        """``(t, value)`` when ``query(pid, t') is value`` for every pid and
        every ``t' >= t``, else None (the default: no such promise).

        A :class:`~repro.sim.scheduler.Simulation` reads this once, at
        construction, and from tick ``t`` on hands every step ``value``
        without calling :meth:`query`, on every kernel. ``value`` is then
        shared by every step, so it must be immutable.
        """
        return None

    def sample_range(
        self, pid: ProcessId, start: Time, end: Time
    ) -> list[tuple[Time, Any]]:
        """Convenience: the history values of ``pid`` over ``[start, end)``."""
        return [(t, self.query(pid, t)) for t in range(start, end)]


class FailureDetector(abc.ABC):
    """A detector ``D``: a factory of histories for a failure pattern.

    The paper's ``D(F)`` is a *set* of histories; ``history(pattern, seed)``
    picks one member deterministically per seed, so experiments can sweep
    adversarial choices while staying reproducible.
    """

    name: str = ""

    @abc.abstractmethod
    def history(
        self, pattern: FailurePattern, *, seed: int = 0
    ) -> FailureDetectorHistory:
        """A history in ``D(pattern)``, chosen deterministically by ``seed``."""

    def detector_name(self) -> str:
        return self.name or type(self).__name__


