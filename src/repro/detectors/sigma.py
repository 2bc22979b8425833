"""The quorum detector Sigma.

Sigma outputs a set of processes (a quorum) at each process such that (a) any
two quorums output at any times by any processes intersect, and (b) there is a
time after which every quorum output at a correct process contains only
correct processes.

Two construction modes:

- ``"anchor"`` (default): every quorum contains a fixed correct *anchor*
  process, which guarantees pairwise intersection in **any** environment —
  including minority-correct ones, where majority quorums cannot eventually
  become all-correct.
- ``"majority"``: quorums are majorities (any two majorities intersect).
  Eventually-correct quorums then require a correct majority; the constructor
  rejects patterns without one.
"""

from __future__ import annotations

from repro.detectors.base import FailureDetector, FailureDetectorHistory
from repro.sim.failures import FailurePattern
from repro.sim.types import ProcessId, Time, draw_below, tag_word

_SIGMA = tag_word("sigma")
_SIGMA_MAJORITY = tag_word("sigma-maj")


class SigmaHistory(FailureDetectorHistory):
    """One Sigma history."""

    def __init__(
        self,
        pattern: FailurePattern,
        *,
        stabilization_time: Time = 0,
        mode: str = "anchor",
        anchor: ProcessId | None = None,
        seed: int = 0,
    ) -> None:
        if not pattern.correct:
            raise ValueError("Sigma needs at least one correct process")
        if mode not in ("anchor", "majority"):
            raise ValueError(f"unknown Sigma mode {mode!r}")
        if mode == "majority" and not pattern.has_correct_majority:
            raise ValueError(
                "majority-mode Sigma requires a correct majority; "
                f"pattern has correct={sorted(pattern.correct)} of n={pattern.n}"
            )
        self.pattern = pattern
        self.stabilization_time = stabilization_time
        self.mode = mode
        self.anchor = min(pattern.correct) if anchor is None else anchor
        if self.anchor not in pattern.correct:
            raise ValueError(f"anchor p{self.anchor} must be correct")
        self.seed = seed

    def _noise(self, pid: ProcessId, t: Time, pool: list[ProcessId], k: int) -> list[ProcessId]:
        """Deterministically pick ``k`` extra members from ``pool``."""
        if k <= 0 or not pool:
            return []
        picked = []
        for i in range(k):
            picked.append(pool[draw_below(len(pool), _SIGMA, self.seed, pid, t, i)])
        return picked

    def query(self, pid: ProcessId, t: Time) -> frozenset[ProcessId]:
        n = self.pattern.n
        correct = sorted(self.pattern.correct)
        if self.mode == "majority":
            majority = n // 2 + 1
            if t >= self.stabilization_time:
                # A correct majority, deterministic per process.
                return frozenset(correct[:majority])
            # Any majority intersects any other majority; rotate through them.
            start = draw_below(n, _SIGMA_MAJORITY, self.seed, pid, t)
            return frozenset((start + i) % n for i in range(majority))
        # anchor mode
        if t >= self.stabilization_time:
            extra = self._noise(pid, t, correct, 1)
            return frozenset([self.anchor, *extra])
        pool = list(range(n))
        extra = self._noise(pid, t, pool, 2)
        return frozenset([self.anchor, *extra])


class SigmaDetector(FailureDetector):
    """Factory of Sigma histories."""

    name = "Sigma"

    def __init__(
        self,
        *,
        stabilization_time: Time = 0,
        mode: str = "anchor",
        anchor: ProcessId | None = None,
    ) -> None:
        self.stabilization_time = stabilization_time
        self.mode = mode
        self.anchor = anchor

    def history(self, pattern: FailurePattern, *, seed: int = 0) -> SigmaHistory:
        return SigmaHistory(
            pattern,
            stabilization_time=self.stabilization_time,
            mode=self.mode,
            anchor=self.anchor,
            seed=seed,
        )
