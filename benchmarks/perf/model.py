"""What the workloads and the tracing share: the invocation's context, a
built simulation, and the outcome a workload hands back."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.sim import Simulation, run_digest
from repro.workload import LatencyObserver

from benchmarks.perf.timing import Leg, LegTimes, Span, measure

#: segments a simulation's timed region is cut into (see timing.py).
SEGMENTS = 200


@dataclass
class Context:
    """What one invocation asked for."""

    seed: int
    seconds: float
    quick: bool
    trace: bool
    scratch: Path

    @property
    def input_seed(self) -> int:
        """The seed fed to generated inputs: always seven digits.

        ``stable_hash`` walks ``repr(seed)`` byte by byte on every draw, so
        a wider seed is measurably slower; a fixed width keeps host time
        comparable across ``--seed`` values.
        """
        return 1_000_000 + self.seed % 9_000_000

    def size(self, full: int) -> int:
        return max(full // 10, 1) if self.quick else full

    @property
    def min_repeats(self) -> int:
        return 2 if self.quick else 3

    @property
    def max_repeats(self) -> int:
        return 2 if self.quick else 200

    @property
    def budget(self) -> float:
        """Seconds of timed repeats; a traced run spends half of them on
        the untraced legs and half behind the proxies."""
        return self.seconds / 2 if self.trace else self.seconds

    def measure(self, legs: list[Leg], seconds: float | None = None) -> dict[str, LegTimes]:
        return measure(
            legs, self.budget if seconds is None else seconds,
            min_repeats=self.min_repeats, max_repeats=self.max_repeats,
        )


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """Everything one measured workload produced."""

    workload: str
    units_per_pass: int
    #: the legs one pass is made of; the end-to-end metrics sum over them.
    legs: dict[str, LegTimes]
    attempted: int
    failed: int
    checks: list[Check]
    #: further timed legs of a traced run (kernel rungs, variants).
    extra_legs: dict[str, LegTimes] = field(default_factory=dict)
    #: per-layer metrics measured by this run (traced runs only).
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(check.ok for check in self.checks)


@dataclass
class Built:
    """A fresh, not-yet-run simulation and how far to run it."""

    sim: Simulation
    horizon: int
    observer: LatencyObserver | None = None
    #: the timing spans wrapped around this simulation (traced twins only).
    spans: dict[str, Span] = field(default_factory=dict)

    def run(self, lap: Callable[[], None] = lambda: None) -> tuple:
        """The timed region, in ``SEGMENTS`` equal simulated spans; returns
        the outcome's fingerprint: the client summary and latency histogram
        where there are clients, the run digest otherwise, and the traffic
        count."""
        for k in range(1, SEGMENTS + 1):
            self.sim.run_until(self.horizon * k // SEGMENTS)
            lap()
        sent = self.sim.network.sent_count
        if self.observer is not None:
            return (self.observer.summary(), sent, self.observer.histogram)
        return (run_digest(self.sim), sent)
