"""The strong (S) and eventually strong (diamond-S) detectors.

Both output suspected sets with strong completeness (faulty processes are
eventually suspected permanently) and a *weak accuracy* flavour:

- S: some correct process is never suspected by anyone;
- diamond-S: some correct process is eventually never suspected.

diamond-S is equivalent to Omega; S was the detector of the original
Chandra-Toueg consensus algorithm. Both are provided as oracles so the CHT
reduction (``repro.cht``) can be exercised with detectors strictly stronger
than Omega.
"""

from __future__ import annotations

from repro.detectors.base import FailureDetector, FailureDetectorHistory
from repro.sim.failures import FailurePattern
from repro.sim.types import ProcessId, Time, draw_below, tag_word

_STRONG = tag_word("s")
_DIAMOND_S = tag_word("ds")


class StrongHistory(FailureDetectorHistory):
    """S: the anchor correct process is never suspected."""

    def __init__(
        self,
        pattern: FailurePattern,
        *,
        anchor: ProcessId | None = None,
        detection_lag: Time = 1,
        seed: int = 0,
    ) -> None:
        if not pattern.correct:
            raise ValueError("S needs at least one correct process")
        self.pattern = pattern
        self.anchor = min(pattern.correct) if anchor is None else anchor
        if self.anchor not in pattern.correct:
            raise ValueError(f"anchor p{self.anchor} must be correct")
        self.detection_lag = detection_lag
        self.seed = seed

    def query(self, pid: ProcessId, t: Time) -> frozenset[ProcessId]:
        suspected = {
            p
            for p, crash_at in self.pattern.crash_times.items()
            if t >= crash_at + self.detection_lag
        }
        # S permits false suspicions of anyone except the anchor; add one
        # deterministic false suspicion to keep protocols honest.
        wrong = draw_below(self.pattern.n, _STRONG, self.seed, pid, t // 5)
        if wrong != self.anchor:
            suspected.add(wrong)
        suspected.discard(self.anchor)
        return frozenset(suspected)


class StrongDetector(FailureDetector):
    name = "S"

    def __init__(self, *, anchor: ProcessId | None = None, detection_lag: Time = 1) -> None:
        self.anchor = anchor
        self.detection_lag = detection_lag

    def history(self, pattern: FailurePattern, *, seed: int = 0) -> StrongHistory:
        return StrongHistory(
            pattern, anchor=self.anchor, detection_lag=self.detection_lag, seed=seed
        )


class EventuallyStrongHistory(FailureDetectorHistory):
    """diamond-S: the anchor stops being suspected after stabilization."""

    def __init__(
        self,
        pattern: FailurePattern,
        *,
        stabilization_time: Time = 0,
        anchor: ProcessId | None = None,
        detection_lag: Time = 1,
        seed: int = 0,
    ) -> None:
        if not pattern.correct:
            raise ValueError("diamond-S needs at least one correct process")
        self.pattern = pattern
        self.stabilization_time = stabilization_time
        self.anchor = min(pattern.correct) if anchor is None else anchor
        if self.anchor not in pattern.correct:
            raise ValueError(f"anchor p{self.anchor} must be correct")
        self.detection_lag = detection_lag
        self.seed = seed

    def query(self, pid: ProcessId, t: Time) -> frozenset[ProcessId]:
        suspected = {
            p
            for p, crash_at in self.pattern.crash_times.items()
            if t >= crash_at + self.detection_lag
        }
        if t < self.stabilization_time:
            # Anyone, including the anchor, may be wrongly suspected early on.
            wrong = draw_below(self.pattern.n, _DIAMOND_S, self.seed, pid, t // 5)
            suspected.add(wrong)
        else:
            suspected.discard(self.anchor)
        return frozenset(suspected)


class EventuallyStrongDetector(FailureDetector):
    name = "diamond-S"

    def __init__(
        self,
        *,
        stabilization_time: Time = 0,
        anchor: ProcessId | None = None,
        detection_lag: Time = 1,
    ) -> None:
        self.stabilization_time = stabilization_time
        self.anchor = anchor
        self.detection_lag = detection_lag

    def history(
        self, pattern: FailurePattern, *, seed: int = 0
    ) -> EventuallyStrongHistory:
        return EventuallyStrongHistory(
            pattern,
            stabilization_time=self.stabilization_time,
            anchor=self.anchor,
            detection_lag=self.detection_lag,
            seed=seed,
        )
