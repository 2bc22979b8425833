"""The perfect (P) and eventually perfect (diamond-P) detectors.

Both output a set of *suspected* processes.

- P: strong completeness (every faulty process is eventually suspected by
  every correct process, permanently) and strong accuracy (no process is
  suspected before it crashes). Our history suspects a process exactly
  ``detection_lag`` ticks after its crash.
- diamond-P: strong completeness and *eventual* strong accuracy — before the
  stabilization time the history may wrongly suspect alive processes;
  afterwards it suspects exactly the crashed ones.
"""

from __future__ import annotations

from repro.detectors.base import FailureDetector, FailureDetectorHistory
from repro.sim.failures import FailurePattern
from repro.sim.types import ProcessId, Time, draw_below, tag_word

_DIAMOND_P = tag_word("dp")


class PerfectHistory(FailureDetectorHistory):
    """P: suspects exactly the processes crashed at least ``detection_lag`` ago."""

    def __init__(self, pattern: FailurePattern, *, detection_lag: Time = 1) -> None:
        if detection_lag < 0:
            raise ValueError("detection lag must be >= 0")
        self.pattern = pattern
        self.detection_lag = detection_lag

    def query(self, pid: ProcessId, t: Time) -> frozenset[ProcessId]:
        return frozenset(
            p
            for p, crash_at in self.pattern.crash_times.items()
            if t >= crash_at + self.detection_lag
        )


class PerfectDetector(FailureDetector):
    name = "P"

    def __init__(self, *, detection_lag: Time = 1) -> None:
        self.detection_lag = detection_lag

    def history(self, pattern: FailurePattern, *, seed: int = 0) -> PerfectHistory:
        return PerfectHistory(pattern, detection_lag=self.detection_lag)


class EventuallyPerfectHistory(FailureDetectorHistory):
    """diamond-P: arbitrary (deterministic) mistakes before stabilization."""

    def __init__(
        self,
        pattern: FailurePattern,
        *,
        stabilization_time: Time = 0,
        mistake_period: int = 5,
        seed: int = 0,
    ) -> None:
        self.pattern = pattern
        self.stabilization_time = stabilization_time
        self.mistake_period = max(1, mistake_period)
        self.seed = seed

    def query(self, pid: ProcessId, t: Time) -> frozenset[ProcessId]:
        crashed = self.pattern.crashed_set(t)
        if t >= self.stabilization_time:
            return crashed
        # Pre-stabilization: wrongly suspect one pseudo-random process (which
        # may be alive) in addition to some of the crashed ones.
        epoch = t // self.mistake_period
        wrong = draw_below(self.pattern.n, _DIAMOND_P, self.seed, pid, epoch)
        return crashed | {wrong}


class EventuallyPerfectDetector(FailureDetector):
    name = "diamond-P"

    def __init__(self, *, stabilization_time: Time = 0, mistake_period: int = 5) -> None:
        self.stabilization_time = stabilization_time
        self.mistake_period = mistake_period

    def history(
        self, pattern: FailurePattern, *, seed: int = 0
    ) -> EventuallyPerfectHistory:
        return EventuallyPerfectHistory(
            pattern,
            stabilization_time=self.stabilization_time,
            mistake_period=self.mistake_period,
            seed=seed,
        )
