"""Metrics over run records: latency, convergence, message counts.

The central quantity is *stable delivery latency in communication steps*:
the paper claims two steps for ETOB under a stable leader and (at least)
three for strong TOB ([22]). In the simulator a communication step is one
network traversal of ``delay_ticks``; protocols also spend bounded local time
waiting for timers, so the step estimate divides latency by the delay and
rounds to the nearest integer once the timer overhead is subtracted — with
``delay_ticks`` well above the timer interval the estimate is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import mean
from typing import Iterable, Sequence

from repro.core.messages import MessageId
from repro.properties.etob_checker import EtobMonitor
from repro.sim.observers import MetricsRecorder, RunMetrics
from repro.sim.runs import RunRecord
from repro.sim.scheduler import Simulation
from repro.sim.types import ProcessId, Time


@dataclass(frozen=True)
class MessageLatency:
    """Latency of one broadcast message."""

    uid: MessageId
    broadcaster: ProcessId
    broadcast_time: Time
    #: per correct process: time of stable delivery (None = never).
    stable_times: dict[ProcessId, Time | None]

    @property
    def everywhere_time(self) -> Time | None:
        """Time when the message was stably delivered at every correct process."""
        times = list(self.stable_times.values())
        if not times or any(t is None for t in times):
            return None
        return max(times)

    @property
    def latency_ticks(self) -> Time | None:
        t = self.everywhere_time
        return None if t is None else t - self.broadcast_time


@dataclass
class LatencyReport:
    """Aggregate delivery latency of a run."""

    latencies: list[MessageLatency] = field(default_factory=list)
    delay_ticks: int = 1
    #: per-process timer interval upper bound (local wait, not a comm step).
    timer_ticks: int = 0

    def delivered(self) -> list[MessageLatency]:
        return [l for l in self.latencies if l.latency_ticks is not None]

    @property
    def undelivered_count(self) -> int:
        return len(self.latencies) - len(self.delivered())

    def mean_ticks(self) -> float | None:
        done = self.delivered()
        if not done:
            return None
        return mean(l.latency_ticks for l in done)

    def mean_steps(self) -> float | None:
        """Mean latency in communication steps (timer overhead subtracted)."""
        done = self.delivered()
        if not done:
            return None
        overhead = 2 * self.timer_ticks
        steps = [
            max(1, l.latency_ticks - overhead) / self.delay_ticks for l in done
        ]
        return mean(steps)

    def max_steps(self) -> float | None:
        done = self.delivered()
        if not done:
            return None
        overhead = 2 * self.timer_ticks
        return max(max(1, l.latency_ticks - overhead) / self.delay_ticks for l in done)


def latency_report(
    run: RunRecord,
    *,
    delay_ticks: int,
    timer_ticks: int = 0,
    correct: Iterable[ProcessId] | None = None,
) -> LatencyReport:
    """Stable delivery latency of every broadcast message of a run."""
    monitor = EtobMonitor(run.correct if correct is None else correct).replay(run)
    report = LatencyReport(delay_ticks=delay_ticks, timer_ticks=timer_ticks)
    for uid, (broadcaster, t) in sorted(monitor.broadcasts.items()):
        stable = {
            pid: monitor.stable_delivery_time(pid, uid)
            for pid in sorted(monitor.correct)
        }
        report.latencies.append(
            MessageLatency(
                uid=uid,
                broadcaster=broadcaster,
                broadcast_time=t,
                stable_times=stable,
            )
        )
    return report


def divergence_windows(
    run: RunRecord, *, correct: Iterable[ProcessId] | None = None
) -> list[tuple[Time, Time]]:
    """Maximal time windows during which correct processes visibly diverged.

    Two observable symptoms count as divergence:

    - *order conflicts*: two processes' current sequences order a common pair
      of messages differently (a window spans from the conflict's appearance
      to its resolution);
    - *non-extensive rewrites*: a process replaces its sequence with one that
      does not extend it — evidence it had adopted a sequence that did not
      survive (a one-tick window at the rewrite).

    Overlapping windows are merged. An open conflict at the end of the run
    closes at ``run.end_time + 1``. A replay of
    :meth:`~repro.properties.etob_checker.EtobMonitor.divergence_windows`.
    """
    monitor = EtobMonitor(run.correct if correct is None else correct)
    return monitor.replay(run).divergence_windows(run.end_time)


def message_counts(sim: Simulation) -> dict[str, int]:
    """Network-level traffic counters of a finished simulation."""
    return {
        "sent": sim.network.sent_count,
        "delivered": sim.network.delivered_count,
        "in_transit": sim.network.in_transit(),
    }


def run_metrics(sim: Simulation) -> RunMetrics:
    """Aggregate step counters of a finished simulation.

    With ``record="metrics"`` this is the live counter object the
    :class:`~repro.sim.observers.MetricsRecorder` maintained during the run
    (O(1)); with ``record="full"`` the same numbers are derived from the
    retained step list, which makes the two paths cross-checkable. Note that
    ``steps`` counts executed plus materialized-idle steps at full fidelity
    but only executed steps at metrics fidelity (the engine skips idle ticks
    there — the difference is exactly ``idle_ticks_skipped``). The
    ``outputs`` and ``none`` levels retain neither steps nor counters, so
    asking for their metrics is an error rather than a silent zero.
    """
    if sim.record_level == "metrics":
        return sim.metrics
    if sim.record_level != "full":
        raise ValueError(
            "run_metrics needs record='full' or record='metrics'; this "
            f"simulation recorded at {sim.record_level!r}"
        )
    # Reuse the live recorder's fold so the two paths cannot drift apart.
    # Steps stream through as lazy views — nothing is re-materialized beyond
    # the record currently being folded.
    metrics = RunMetrics(sim.n)
    recorder = MetricsRecorder(metrics)
    for step in sim.run.iter_steps():
        message = step.message
        recorder.on_step_raw(
            sim, step.index, step.time, step.pid,
            -1 if message is None else message.sender,
            None if message is None else message.payload,
            -1 if message is None else message.send_time,
            step.fd_value, step.inputs, step.outputs, step.timeout_fired,
            step.sent, step.received_count,
        )
    metrics.end_time = sim.run.end_time
    return metrics


# ---------------------------------------------------------------------------
# streaming percentiles: the bucketed latency histogram
# ---------------------------------------------------------------------------


def nearest_rank_percentile(values: Sequence[int], q: float) -> int:
    """The nearest-rank percentile of ``values``: the smallest element whose
    rank is at least ``ceil(q/100 * len(values))`` (rank clamped to >= 1).

    This is the sorted-list oracle the workload tests differential-check
    :class:`LatencyHistogram` against; both use the same rank definition, so
    below the histogram's linear range the two are *equal*, not merely close.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class LatencyHistogram:
    """A deterministic bucketed histogram of non-negative integer latencies.

    HDR-histogram-style bucketing with ``2**precision_bits`` linear buckets:
    values below ``2**precision_bits`` land in exact one-tick buckets; larger
    values share geometric buckets of width ``2**e`` (``e = bit_length -
    precision_bits``), whose *floor* the percentile queries report.

    Error bound: for a value ``v`` in a geometric bucket, the reported floor
    ``f`` satisfies ``f <= v < f * (1 + 2**-(precision_bits - 1))`` — with the
    default 9 precision bits the relative error is below 1/256 (~0.4%), and
    values under 512 ticks are exact. ``tests/test_workload.py`` pins both
    halves against :func:`nearest_rank_percentile` on the raw values.

    Memory is O(distinct buckets), independent of the number of recorded
    operations — the property that lets the workload observer ride the packed
    kernel's fused loop without per-op Python objects. All state is integer
    counters, so two runs that record the same multiset of latencies produce
    identical histograms regardless of arrival order, worker count, or
    kernel.
    """

    __slots__ = ("precision_bits", "_counts", "count", "total",
                 "min_value", "max_value")

    def __init__(self, precision_bits: int = 9) -> None:
        if precision_bits < 2:
            raise ValueError(
                f"precision_bits must be >= 2, got {precision_bits}"
            )
        self.precision_bits = precision_bits
        #: bucket index -> count; sparse, deterministic content.
        self._counts: dict[int, int] = {}
        self.count = 0
        #: exact sum of recorded values (so the mean is exact, not bucketed).
        self.total = 0
        self.min_value: int | None = None
        self.max_value: int | None = None

    # -- bucketing ----------------------------------------------------------------

    def bucket_index(self, value: int) -> int:
        """The bucket ``value`` lands in (exact below the linear range)."""
        m = self.precision_bits
        if value < (1 << m):
            return value
        e = value.bit_length() - m
        mantissa = value >> e  # in [2**(m-1), 2**m)
        return (1 << m) + ((e - 1) << (m - 1)) + (mantissa - (1 << (m - 1)))

    def bucket_floor(self, index: int) -> int:
        """The smallest value mapping to bucket ``index``."""
        m = self.precision_bits
        if index < (1 << m):
            return index
        block, offset = divmod(index - (1 << m), 1 << (m - 1))
        mantissa = (1 << (m - 1)) + offset
        return mantissa << (block + 1)

    # -- recording ----------------------------------------------------------------

    def add(self, value: int, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (a non-negative int)."""
        if value < 0:
            raise ValueError(f"latency must be >= 0, got {value}")
        index = self.bucket_index(value)
        self._counts[index] = self._counts.get(index, 0) + count
        self.count += count
        self.total += value * count
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` into this histogram (same precision required)."""
        if other.precision_bits != self.precision_bits:
            raise ValueError(
                "cannot merge histograms of different precision: "
                f"{self.precision_bits} vs {other.precision_bits}"
            )
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        for bound in (other.min_value,):
            if bound is not None and (
                self.min_value is None or bound < self.min_value
            ):
                self.min_value = bound
        for bound in (other.max_value,):
            if bound is not None and (
                self.max_value is None or bound > self.max_value
            ):
                self.max_value = bound

    # -- queries ------------------------------------------------------------------

    def percentile(self, q: float) -> int:
        """The nearest-rank ``q``-th percentile, reported as its bucket floor.

        Equal to :func:`nearest_rank_percentile` of the recorded values when
        the answer lies in the linear range; otherwise a floor within the
        class error bound below it.
        """
        if not self.count:
            raise ValueError("percentile of an empty histogram")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        for index in sorted(self._counts):
            seen += self._counts[index]
            if seen >= rank:
                return self.bucket_floor(index)
        raise AssertionError("unreachable: rank exceeds total count")

    def mean(self) -> float:
        """The exact mean of the recorded values."""
        if not self.count:
            raise ValueError("mean of an empty histogram")
        return self.total / self.count

    def snapshot(self) -> dict:
        """A plain-dict summary (stable keys, suitable for report rows)."""
        if not self.count:
            return {"count": 0, "p50": None, "p95": None, "p99": None,
                    "mean": None, "min": None, "max": None}
        return {
            "count": self.count,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "mean": self.mean(),
            "min": self.min_value,
            "max": self.max_value,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return (
            self.precision_bits == other.precision_bits
            and self.count == other.count
            and self.total == other.total
            and self.min_value == other.min_value
            and self.max_value == other.max_value
            and self._counts == other._counts
        )

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self.count}, min={self.min_value}, "
            f"max={self.max_value}, buckets={len(self._counts)})"
        )
