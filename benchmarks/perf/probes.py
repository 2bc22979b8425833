"""Timing proxies around ``repro``'s public extension points.

A traced run is the untraced simulation rebuilt from the same public pieces
with each piece wrapped: :class:`TimedProcess` around every process,
:class:`TimedDelay` around the delay model, :class:`TimedObserver` around
the latency observer. Nothing under ``src/`` is edited, and the wrapped run
must reproduce the untraced outcome exactly (the workloads assert it).

All three boundaries are called by the engine, never by one another (sends
are buffered in the context and expanded after the handler returns), so the
spans are siblings under ``sim.run_until`` and the engine's self time is
``run_until`` minus their sum.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.sim import Process, SimObserver, Simulation

from benchmarks.perf.timing import Span


class TimedProcess(Process):
    """Delegates every handler to ``inner``, timing the call."""

    def __init__(self, inner: Process, span: Span) -> None:
        self.inner = inner
        self.span = span

    def attach(self, pid: int, n: int) -> None:
        super().attach(pid, n)
        self.inner.attach(pid, n)

    def on_start(self, ctx) -> None:
        self.span.timed(self.inner.on_start, ctx)

    def on_message(self, ctx, sender, payload) -> None:
        self.span.timed(self.inner.on_message, ctx, sender, payload)

    def on_input(self, ctx, value) -> None:
        self.span.timed(self.inner.on_input, ctx, value)

    def on_timeout(self, ctx) -> None:
        self.span.timed(self.inner.on_timeout, ctx)


class TimedDelay:
    """A ``DelayModel`` delegating to ``inner``, timing both entry points."""

    def __init__(self, inner: Any, span: Span) -> None:
        self.inner = inner
        self.span = span
        if hasattr(inner, "delay_profile"):
            self.delay_profile = self._delay_profile

    def delay(self, sender: int, receiver: int, t: int) -> int:
        return self.span.timed(self.inner.delay, sender, receiver, t)

    def _delay_profile(self, sender: int, t: int, receivers: Sequence[int]) -> list[int]:
        return self.span.timed(self.inner.delay_profile, sender, t, receivers)


class TimedObserver(SimObserver):
    """Delegates the step hooks to ``inner``, timing the fold.

    Overrides both ``on_step`` and ``on_step_raw`` like the observer it
    wraps, so the engine keeps its raw dispatch path.
    """

    def __init__(self, inner: SimObserver, span: Span) -> None:
        self.inner = inner
        self.span = span
        self.wants_idle_steps = inner.wants_idle_steps

    def on_step(self, sim, record) -> None:
        self.span.timed(self.inner.on_step, sim, record)

    def on_step_raw(self, sim, *fields) -> None:
        self.span.timed(self.inner.on_step_raw, sim, *fields)


def traced_twin(
    donor: Simulation,
    span_of: Callable[[Process], Span],
    delay_span: Span,
    observers: Sequence[SimObserver] = (),
) -> Simulation:
    """A not-yet-run copy of ``donor`` with every process and the delay
    model wrapped. ``donor`` must not have run: its processes are reused.
    Application inputs are not copied; the caller schedules them again."""
    return Simulation(
        [TimedProcess(process, span_of(process)) for process in donor.processes],
        failure_pattern=donor.failure_pattern,
        detector=donor.detector,
        delay_model=TimedDelay(donor.network.delay_model, delay_span),
        seed=donor.seed,
        timeout_interval=donor.timeout_intervals,
        scheduling=donor.scheduling,
        message_batch=donor.message_batch,
        engine=donor.engine,
        kernel=donor.kernel,
        record=donor.record_level,
        observers=observers,
    )
