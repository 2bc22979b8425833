"""The eventual leader detector Omega.

Omega outputs a process id at each process; there is a time after which it
outputs the id of the *same correct* process at every correct process. Before
that time its output is unconstrained — our histories expose several
adversarial pre-stabilization behaviours, since protocols built on Omega must
tolerate arbitrary disagreement until stabilization.
"""

from __future__ import annotations

from typing import Callable

from repro.detectors.base import FailureDetector, FailureDetectorHistory
from repro.sim.failures import FailurePattern
from repro.sim.types import ProcessId, Time, draw_below, tag_word

_OMEGA = tag_word("omega")

#: A pre-stabilization behaviour: maps (pid, t) to the leader pid sees at t.
PreBehavior = Callable[[ProcessId, Time], ProcessId]


class OmegaHistory(FailureDetectorHistory):
    """One Omega history: scripted chaos before ``stabilization_time``, then a
    fixed correct leader everywhere."""

    def __init__(
        self,
        pattern: FailurePattern,
        *,
        stabilization_time: Time = 0,
        leader: ProcessId | None = None,
        pre_behavior: str | PreBehavior = "rotate",
        churn_period: int = 7,
        seed: int = 0,
    ) -> None:
        if not pattern.correct:
            raise ValueError("Omega needs at least one correct process")
        self.pattern = pattern
        self.stabilization_time = stabilization_time
        self.leader = min(pattern.correct) if leader is None else leader
        if self.leader not in pattern.correct:
            raise ValueError(
                f"eventual leader p{self.leader} must be correct "
                f"(correct set: {sorted(pattern.correct)})"
            )
        self.churn_period = max(1, churn_period)
        self.seed = seed
        if callable(pre_behavior):
            self._pre: PreBehavior = pre_behavior
        elif pre_behavior == "rotate":
            self._pre = self._rotate
        elif pre_behavior == "self":
            self._pre = lambda pid, t: pid
        elif pre_behavior == "random":
            self._pre = self._random
        elif pre_behavior == "stable":
            self._pre = lambda pid, t: self.leader
        else:
            raise ValueError(f"unknown pre-stabilization behaviour {pre_behavior!r}")

    def _rotate(self, pid: ProcessId, t: Time) -> ProcessId:
        # Different processes disagree: each sees a leader rotating through the
        # ring with a per-process phase shift.
        return (t // self.churn_period + pid) % self.pattern.n

    def _random(self, pid: ProcessId, t: Time) -> ProcessId:
        epoch = t // self.churn_period
        return draw_below(self.pattern.n, _OMEGA, self.seed, pid, epoch)

    def query(self, pid: ProcessId, t: Time) -> ProcessId:
        if t >= self.stabilization_time:
            return self.leader
        return self._pre(pid, t)

    def settles(self) -> tuple[Time, ProcessId]:
        return self.stabilization_time, self.leader


class OmegaDetector(FailureDetector):
    """Factory of Omega histories."""

    name = "Omega"

    def __init__(
        self,
        *,
        stabilization_time: Time = 0,
        leader: ProcessId | None = None,
        pre_behavior: str | PreBehavior = "rotate",
        churn_period: int = 7,
    ) -> None:
        self.stabilization_time = stabilization_time
        self.leader = leader
        self.pre_behavior = pre_behavior
        self.churn_period = churn_period

    def history(self, pattern: FailurePattern, *, seed: int = 0) -> OmegaHistory:
        return OmegaHistory(
            pattern,
            stabilization_time=self.stabilization_time,
            leader=self.leader,
            pre_behavior=self.pre_behavior,
            churn_period=self.churn_period,
            seed=seed,
        )
