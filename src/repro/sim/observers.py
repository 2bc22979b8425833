"""Pluggable simulation observers and recording fidelity levels.

The seed engine hard-wired recording into the scheduler: every step built a
:class:`~repro.sim.runs.StepRecord` and appended it to a
:class:`~repro.sim.runs.RunRecord`, forever. Long stabilization experiments
were therefore memory- and CPU-bound on bookkeeping. This module splits
recording out of the scheduler into an observer protocol:

- :class:`SimObserver` — the hook interface (``on_step`` / ``on_send`` /
  ``on_deliver`` plus ``on_log`` and ``on_finish``). The scheduler invokes
  hooks for every event it produces; observers decide what to retain.
- Recorders — one per fidelity level of ``Simulation(record=...)``:

  ========== ===============================================================
  level      what is retained
  ========== ===============================================================
  ``full``   everything the seed engine recorded: the complete step list
             (including idle steps), input/output histories, and the
             diagnostic log. Byte-identical to the naive tick-at-a-time
             stepper — the event engine materializes idle-step records so
             the run record ``(F, H, H_I, H_O, S, T)`` is exact.
  ``outputs`` input/output histories, log, and ``end_time`` only; the step
             list stays empty. Enough for every delivery-timeline based
             property checker and metric.
  ``metrics`` aggregate :class:`RunMetrics` counters only (steps per
             process, receives, timeouts, inputs/outputs, traffic).
  ``none``   nothing.
  ========== ===============================================================

An observer that sets ``wants_idle_steps = True`` forces the event engine to
record every live tick it fast-forwards over (the step a naive stepper would
have produced: no message, no inputs, no timeout — just the sampled detector
value). Observers that leave it ``False`` let the engine skip idle stretches
in O(1).

Idle ticks are dispatched through the ``on_idle_step`` fast path: the engine
hands over the four scalars that fully determine an idle step and the base
class materializes a :class:`~repro.sim.runs.StepRecord` for observers that
only implement ``on_step``. Recorders override the fast path to append
straight into the columnar :class:`~repro.sim.runs.StepStore`, so
full-fidelity runs no longer allocate a dataclass per fast-forwarded tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.sim.errors import ConfigurationError
from repro.sim.runs import ReceivedMessage, RunRecord, StepRecord, StepStore
from repro.sim.types import ProcessId, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scheduler imports us)
    from repro.sim.network import Envelope
    from repro.sim.scheduler import Simulation

#: valid values of ``Simulation(record=...)``, highest fidelity first.
RECORD_LEVELS = ("full", "outputs", "metrics", "none")


class SimObserver:
    """Base class for simulation observers; override the hooks you need.

    Hooks are called synchronously from the scheduler, in the order events
    happen. Observers must not mutate simulation state.
    """

    #: When True, the event engine records idle live ticks instead of
    #: skipping them, so ``on_step`` / ``on_idle_step`` sees every step the
    #: naive stepper would have taken.
    wants_idle_steps: bool = False

    def on_step(self, sim: "Simulation", record: StepRecord) -> None:
        """One step was taken (or, for full-fidelity runs, an idle tick passed)."""

    def on_idle_step(
        self,
        sim: "Simulation",
        index: int,
        t: Time,
        pid: ProcessId,
        fd_value: Any,
    ) -> None:
        """An idle live tick passed while idle-step recording is forced.

        The four scalars fully determine the step a naive stepper would have
        produced; the default materializes that record and feeds ``on_step``,
        so observers that only override ``on_step`` see every step. Override
        this to skip the record allocation on the fast-forward hot path.
        """
        self.on_step(
            sim,
            StepRecord(index=index, time=t, pid=pid, message=None, fd_value=fd_value),
        )

    def on_idle_span(
        self, sim: "Simulation", start_index: int, start: Time, end: Time
    ) -> None:
        """A uniform idle span ``[start, end)`` passed (round-robin, no
        crashes inside): one live idle tick per clock tick, pids ``t % n``.

        The default feeds each tick through ``on_idle_step`` (querying the
        detector per tick — sound because detector histories are pure
        functions of ``(pid, t)``); columnar recorders override this to
        extend their columns in bulk.
        """
        n = sim.n
        detector = sim.detector
        index = start_index
        for t in range(start, end):
            pid = t % n
            fd_value = detector.query(pid, t) if detector is not None else None
            self.on_idle_step(sim, index, t, pid, fd_value)
            index += 1

    def on_step_raw(
        self,
        sim: "Simulation",
        index: int,
        t: Time,
        pid: ProcessId,
        sender: ProcessId,
        payload: Any,
        send_time: Time,
        fd_value: Any,
        inputs: tuple[Any, ...],
        outputs: tuple[Any, ...],
        timeout_fired: bool,
        sent: int,
        received_count: int,
    ) -> None:
        """An executed step, decomposed into its raw fields.

        The scheduler only takes this path when *every* attached step
        observer overrides it (otherwise it materializes one
        :class:`StepRecord` and dispatches ``on_step`` as usual), so an
        override must be behaviourally identical to its ``on_step``.
        ``sender`` is -1 for a lambda step. The base implementation exists
        for recorders falling back to record dispatch; plain observers
        should override ``on_step`` instead.
        """
        message = (
            None
            if sender < 0
            else ReceivedMessage(sender=sender, payload=payload, send_time=send_time)
        )
        self.on_step(
            sim,
            StepRecord(
                index=index,
                time=t,
                pid=pid,
                message=message,
                fd_value=fd_value,
                inputs=inputs,
                outputs=outputs,
                timeout_fired=timeout_fired,
                sent=sent,
                received_count=received_count,
            ),
        )

    def on_send(self, sim: "Simulation", envelope: "Envelope") -> None:
        """A message entered the network."""

    def on_deliver(self, sim: "Simulation", envelope: "Envelope") -> None:
        """A message was consumed by its receiver."""

    def on_log(self, sim: "Simulation", t: Time, pid: ProcessId, event: Any) -> None:
        """A process logged a diagnostic event during a step."""

    def on_finish(self, sim: "Simulation") -> None:
        """A run loop (``run_until`` / ``run_steps`` / quiescence) returned."""


@dataclass
class RunMetrics:
    """Aggregate counters of a run — all ``record="metrics"`` retains.

    ``steps`` counts *executed* steps (a fast-forwarded idle tick executes
    nothing); ``idle_ticks_skipped`` counts the live ticks the event engine
    fast-forwarded over without executing (crashed ticks count in neither —
    they are consumed silently, as in the naive stepper).
    """

    n: int
    steps: int = 0
    steps_by_pid: list[int] = field(default_factory=list)
    messages_sent: int = 0
    messages_received: int = 0
    timeouts_fired: int = 0
    inputs: int = 0
    outputs: int = 0
    idle_ticks_skipped: int = 0
    end_time: Time = 0
    #: which loop the last run call ran on, and why not the C tick loop
    #: (``Simulation.fused_path`` / ``fused_reason`` as of its end). How a
    #: run was executed, not what it computed: excluded from equality so
    #: metrics still compare equal across kernel rungs.
    fused_path: str | None = field(default=None, compare=False)
    fused_reason: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.steps_by_pid:
            self.steps_by_pid = [0] * self.n

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view (handy for suite rows and tables)."""
        return {
            "steps": self.steps,
            "steps_by_pid": list(self.steps_by_pid),
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "timeouts_fired": self.timeouts_fired,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "idle_ticks_skipped": self.idle_ticks_skipped,
            "end_time": self.end_time,
            "fused_path": self.fused_path,
            "fused_reason": self.fused_reason,
        }


class StepGapProbe(SimObserver):
    """Online fairness-slack extraction: the largest step gap of any correct
    process, computed from the event stream with O(n) state and no step
    retention — the falsifier's cheap objective hook.

    Tracks, per correct process, the time of its last (idle or executed)
    step and folds each new step's gap into a running maximum; idle spans
    are folded arithmetically (one O(n) pass per span, never per tick).
    Overrides *all* step hooks — ``on_step``, ``on_step_raw``,
    ``on_idle_step``, ``on_idle_span`` — so attaching the probe neither
    forces record materialization on raw-capable runs nor misses a step,
    and ``wants_idle_steps`` keeps the step notion identical to a
    full-fidelity record's. After the run, :meth:`value` equals
    :func:`repro.properties.run_checker.fairness_slack` of the full record
    (pinned by ``tests/test_falsify.py``).
    """

    wants_idle_steps = True

    def __init__(self) -> None:
        self.max_gap: Time = 0
        self._last: dict[ProcessId, Time] = {}
        self._correct: frozenset | None = None

    def _correct_set(self, sim: "Simulation") -> frozenset:
        correct = self._correct
        if correct is None:
            correct = self._correct = sim.failure_pattern.correct
        return correct

    def _observe(self, sim: "Simulation", t: Time, pid: ProcessId) -> None:
        if pid not in self._correct_set(sim):
            return
        last = self._last.get(pid)
        if last is not None and t - last > self.max_gap:
            self.max_gap = t - last
        self._last[pid] = t

    def on_step(self, sim: "Simulation", record: StepRecord) -> None:
        self._observe(sim, record.time, record.pid)

    def on_step_raw(
        self, sim, index, t, pid, sender, payload, send_time, fd_value,
        inputs, outputs, timeout_fired, sent, received_count,
    ) -> None:
        self._observe(sim, t, pid)

    def on_idle_step(self, sim, index, t, pid, fd_value) -> None:
        self._observe(sim, t, pid)

    def on_idle_span(
        self, sim: "Simulation", start_index: int, start: Time, end: Time
    ) -> None:
        # Uniform round-robin span: pid p steps at exactly the ticks
        # t in [start, end) with t % n == p, so the span folds per process
        # in O(1): entry gap to its first tick, internal gaps of n, and the
        # last tick becomes its new watermark.
        n = sim.n
        last_map = self._last
        max_gap = self.max_gap
        for pid in self._correct_set(sim):
            first = start + ((pid - start) % n)
            if first >= end:
                continue
            last = last_map.get(pid)
            if last is not None and first - last > max_gap:
                max_gap = first - last
            final = first + ((end - 1 - first) // n) * n
            if final > first and n > max_gap:
                max_gap = n
            last_map[pid] = final
        self.max_gap = max_gap

    def value(self, sim: "Simulation") -> Time:
        """The run's fairness slack, folding in the end-of-run tail gap.

        Equals ``fairness_slack(sim.run)`` on any fidelity (the probe does
        not need retained steps); a correct process that never stepped
        yields ``end + 1``, like the column-based checker.
        """
        end = sim.last_live_tick
        worst = self.max_gap
        for pid in sorted(self._correct_set(sim)):
            last = self._last.get(pid)
            if last is None:
                return end + 1
            if end - last > worst:
                worst = end - last
        return worst


class FullRecorder(SimObserver):
    """``record="full"``: retain the complete run record, seed-identical.

    Executed steps are decomposed into the run's columnar
    :class:`~repro.sim.runs.StepStore`; idle ticks take the
    ``on_idle_step`` fast path and never materialize a record at all.
    """

    wants_idle_steps = True

    def __init__(self, run: RunRecord) -> None:
        self.run = run
        steps = run.steps
        self._store = steps if isinstance(steps, StepStore) else None

    def on_step(self, sim: "Simulation", record: StepRecord) -> None:
        self.run.record_step(record)

    def on_step_raw(
        self,
        sim: "Simulation",
        index: int,
        t: Time,
        pid: ProcessId,
        sender: ProcessId,
        payload: Any,
        send_time: Time,
        fd_value: Any,
        inputs: tuple[Any, ...],
        outputs: tuple[Any, ...],
        timeout_fired: bool,
        sent: int,
        received_count: int,
    ) -> None:
        store = self._store
        if store is None:  # list-backed run: materialize the record instead
            super().on_step_raw(
                sim, index, t, pid, sender, payload, send_time, fd_value,
                inputs, outputs, timeout_fired, sent, received_count,
            )
            return
        store.append_exec(
            index, t, pid, sender, payload, send_time, fd_value,
            inputs, outputs, timeout_fired, sent, received_count,
        )
        self.run.record_histories_raw(pid, t, inputs, outputs)

    def on_idle_step(
        self,
        sim: "Simulation",
        index: int,
        t: Time,
        pid: ProcessId,
        fd_value: Any,
    ) -> None:
        store = self._store
        if store is None:  # list-backed run: fall back to record views
            super().on_idle_step(sim, index, t, pid, fd_value)
            return
        store.append_idle(index, t, pid, fd_value)
        run = self.run
        if t > run.end_time:  # idle steps carry no inputs/outputs to fold
            run.end_time = t

    def on_idle_span(
        self, sim: "Simulation", start_index: int, start: Time, end: Time
    ) -> None:
        store = self._store
        if store is None:  # list-backed run: per-tick record materialization
            super().on_idle_span(sim, start_index, start, end)
            return
        store.extend_idle_span(start_index, start, end, sim.n, sim.detector)
        run = self.run
        if end - 1 > run.end_time:
            run.end_time = end - 1

    def on_log(self, sim: "Simulation", t: Time, pid: ProcessId, event: Any) -> None:
        self.run.log.append((t, pid, event))


class LegacyFullRecorder(FullRecorder):
    """Full-fidelity recording into a plain list of ``StepRecord`` objects.

    The pre-columnar data plane, kept on purpose: the differential tests pin
    the columnar store byte-identical against it, and
    ``benchmarks/bench_dataplane.py`` uses it as the wall-clock / peak-memory
    baseline. Attach via ``Simulation(record="none",
    observers=[LegacyFullRecorder(run)])`` where ``run`` was built with
    ``steps=[]``; every step — idle ticks included — is materialized and
    retained as a dataclass, exactly as the seed engine recorded.
    """

    def __init__(self, run: RunRecord) -> None:
        if isinstance(run.steps, StepStore):
            raise ConfigurationError(
                "LegacyFullRecorder needs a list-backed run; build it with "
                "RunRecord(n, pattern, steps=[])"
            )
        super().__init__(run)


class OutputsRecorder(SimObserver):
    """``record="outputs"``: histories and log only; no step retention."""

    def __init__(self, run: RunRecord) -> None:
        self.run = run

    def on_step(self, sim: "Simulation", record: StepRecord) -> None:
        self.run.record_histories(record)

    def on_step_raw(
        self,
        sim: "Simulation",
        index: int,
        t: Time,
        pid: ProcessId,
        sender: ProcessId,
        payload: Any,
        send_time: Time,
        fd_value: Any,
        inputs: tuple[Any, ...],
        outputs: tuple[Any, ...],
        timeout_fired: bool,
        sent: int,
        received_count: int,
    ) -> None:
        self.run.record_histories_raw(pid, t, inputs, outputs)

    def on_log(self, sim: "Simulation", t: Time, pid: ProcessId, event: Any) -> None:
        self.run.log.append((t, pid, event))

    def on_finish(self, sim: "Simulation") -> None:
        # Idle steps are not materialized at this fidelity, so end_time cannot
        # come from on_step alone; extend it to the last live tick the clock
        # consumed — the same value a full-fidelity record ends on.
        if sim.last_live_tick > self.run.end_time:
            self.run.end_time = sim.last_live_tick


class MetricsRecorder(SimObserver):
    """``record="metrics"``: aggregate counters only."""

    def __init__(self, metrics: RunMetrics) -> None:
        self.metrics = metrics

    def on_step(self, sim: "Simulation", record: StepRecord) -> None:
        m = self.metrics
        m.steps += 1
        m.steps_by_pid[record.pid] += 1
        m.messages_sent += record.sent
        m.messages_received += record.received_count
        m.timeouts_fired += bool(record.timeout_fired)
        m.inputs += len(record.inputs)
        m.outputs += len(record.outputs)
        if record.time > m.end_time:
            m.end_time = record.time

    def on_step_raw(
        self,
        sim: "Simulation",
        index: int,
        t: Time,
        pid: ProcessId,
        sender: ProcessId,
        payload: Any,
        send_time: Time,
        fd_value: Any,
        inputs: tuple[Any, ...],
        outputs: tuple[Any, ...],
        timeout_fired: bool,
        sent: int,
        received_count: int,
    ) -> None:
        m = self.metrics
        m.steps += 1
        m.steps_by_pid[pid] += 1
        m.messages_sent += sent
        m.messages_received += received_count
        m.timeouts_fired += bool(timeout_fired)
        m.inputs += len(inputs)
        m.outputs += len(outputs)
        if t > m.end_time:
            m.end_time = t

    def on_finish(self, sim: "Simulation") -> None:
        if sim.last_live_tick > self.metrics.end_time:
            self.metrics.end_time = sim.last_live_tick


def make_recorder(level: str, run: RunRecord, metrics: RunMetrics) -> SimObserver | None:
    """The recording observer for a fidelity level (None for ``"none"``)."""
    if level == "full":
        return FullRecorder(run)
    if level == "outputs":
        return OutputsRecorder(run)
    if level == "metrics":
        return MetricsRecorder(metrics)
    if level == "none":
        return None
    raise ConfigurationError(
        f"unknown record level {level!r}; expected one of {RECORD_LEVELS}"
    )
