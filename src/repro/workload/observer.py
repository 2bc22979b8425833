"""Streaming tail-latency measurement, fused-loop compatible.

:class:`LatencyObserver` folds the client processes' step outputs into a
:class:`~repro.analysis.metrics.LatencyHistogram` as the run executes. It is
an :class:`~repro.sim.observers.OutputMonitor`, like the property monitors
of :mod:`repro.properties`: one ``on_step_raw`` call per step, the hook
every loop calls, so the million-op benchmark measures latency percentiles
on the C tick loop without the engine ever materializing a ``StepRecord``
or the observer retaining a per-operation object (in-flight arrival ticks
are plain ints keyed by rid, bounded by outstanding requests).

:func:`latency_from_run` is the same fold replayed over a ``full``- or
``outputs``-fidelity run record's output history, so it recomputes the
identical summary post hoc; ``tests/test_workload.py`` pins the two against
each other across kernels and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.analysis.metrics import LatencyHistogram
from repro.sim.observers import OutputMonitor
from repro.sim.runs import RunRecord
from repro.sim.types import ProcessId, Time

__all__ = ["LatencyObserver", "WorkloadSummary", "latency_from_run"]


@dataclass(frozen=True)
class WorkloadSummary:
    """The workload-level outcome of one run, all integer-derived.

    Latency percentiles are in ticks from *scheduled arrival* to first
    response (bucket floors of the histogram — see
    :class:`~repro.analysis.metrics.LatencyHistogram` for the error bound);
    ``throughput`` is completed operations per 1000 ticks of the span from
    first scheduled arrival to last completion. Every field is a pure
    function of the simulated event stream, so summaries are byte-comparable
    across workers and kernels.
    """

    submitted: int
    completed: int
    gave_up: int
    retries: int
    revised: int
    p50: int | None
    p95: int | None
    p99: int | None
    mean: float | None
    max: int | None
    span: Time
    throughput: float

    @property
    def served(self) -> bool:
        """Every submitted operation completed (no give-ups, none in flight)."""
        return self.submitted > 0 and self.completed == self.submitted

    def as_row(self) -> dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "gave_up": self.gave_up,
            "retries": self.retries,
            "revised": self.revised,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "mean": self.mean,
            "max": self.max,
            "span": self.span,
            "throughput": self.throughput,
            "served": self.served,
        }


class LatencyObserver(OutputMonitor):
    """Streaming open-loop latency/throughput metrics over client outputs.

    Attach alongside any recording level; the run keeps whichever loop it
    would take without it. ``wants_idle_steps`` stays False — client
    submissions and replies only ever happen on executed steps — so idle
    fast-forwarding is unaffected. :func:`latency_from_run` replays a
    retained run through the same fold.
    """

    def __init__(
        self, client_pids: Iterable[ProcessId], *, precision_bits: int = 9
    ) -> None:
        self.clients = frozenset(client_pids)
        if not self.clients:
            raise ValueError("LatencyObserver needs at least one client pid")
        self.histogram = LatencyHistogram(precision_bits)
        #: per client: rid -> scheduled arrival tick (ints only; bounded by
        #: in-flight requests, not by operations issued).
        self._inflight: dict[ProcessId, dict[int, Time]] = {
            pid: {} for pid in self.clients
        }
        self.submitted = 0
        self.completed = 0
        self.gave_up = 0
        self.retries = 0
        self.revised = 0
        self.first_arrival: Time | None = None
        self.last_completion: Time | None = None

    def fold(self, t: Time, pid: ProcessId, outputs: tuple) -> None:
        if pid not in self.clients:
            return
        inflight = self._inflight[pid]
        for out in outputs:
            if not (isinstance(out, tuple) and out):
                continue
            tag = out[0]
            if tag == "client-submit":
                __, rid, arrival = out
                inflight[rid] = arrival
                self.submitted += 1
                if self.first_arrival is None or arrival < self.first_arrival:
                    self.first_arrival = arrival
            elif tag == "client-response":
                arrival = inflight.pop(out[1], None)
                if arrival is None:
                    continue  # a reply to a non-workload ("submit",) input
                self.histogram.add(t - arrival)
                self.completed += 1
                if self.last_completion is None or t > self.last_completion:
                    self.last_completion = t
            elif tag == "client-retry":
                self.retries += 1
            elif tag == "client-gave-up":
                if inflight.pop(out[1], None) is not None:
                    self.gave_up += 1
            elif tag == "client-revised":
                self.revised += 1

    def summary(self) -> WorkloadSummary:
        hist = self.histogram
        empty = hist.count == 0
        if self.first_arrival is None or self.last_completion is None:
            span = 0
        else:
            span = self.last_completion - self.first_arrival
        throughput = (
            0.0 if span <= 0 else round(self.completed * 1000.0 / span, 6)
        )
        return WorkloadSummary(
            submitted=self.submitted,
            completed=self.completed,
            gave_up=self.gave_up,
            retries=self.retries,
            revised=self.revised,
            p50=None if empty else hist.percentile(50),
            p95=None if empty else hist.percentile(95),
            p99=None if empty else hist.percentile(99),
            mean=None if empty else round(hist.mean(), 6),
            max=None if empty else hist.max_value,
            span=span,
            throughput=throughput,
        )


def latency_from_run(
    run: RunRecord,
    client_pids: Iterable[ProcessId],
    *,
    precision_bits: int = 9,
) -> WorkloadSummary:
    """Recompute the workload summary from a retained run record.

    Needs ``record="full"`` or ``record="outputs"`` (an output history).
    The outputs are replayed in (tick, pid, emission) order —
    exactly the order the streaming observer saw them — so the result is
    *equal* to the live :class:`LatencyObserver`'s, which the differential
    tests pin across kernels and worker counts.
    """
    observer = LatencyObserver(client_pids, precision_bits=precision_bits)
    return observer.replay(run).summary()
