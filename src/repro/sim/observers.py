"""Pluggable simulation observers and recording fidelity levels.

The seed engine hard-wired recording into the scheduler: every step built a
:class:`~repro.sim.runs.StepRecord` and appended it to a
:class:`~repro.sim.runs.RunRecord`, forever. Long stabilization experiments
were therefore memory- and CPU-bound on bookkeeping. This module splits
recording out of the scheduler into an observer protocol:

- :class:`SimObserver` — the hook interface: ``on_step_raw`` (every
  executed step, as raw fields; the base builds a
  :class:`~repro.sim.runs.StepRecord` and calls ``on_step``), the idle
  hooks, ``on_log`` and ``on_finish``. A step ``(p, m, d)`` carries the one
  message it consumes, so there is no separate per-message hook. The
  scheduler invokes hooks for every event it produces; observers decide
  what to retain.
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
             list stays empty. Enough to replay every
             :class:`OutputMonitor` (property checkers, metrics).
  ``metrics`` aggregate :class:`RunMetrics` counters only (steps per
             process, receives, timeouts, inputs/outputs, traffic).
  ``none``   nothing.
  ========== ===============================================================

An observer that sets ``wants_idle_steps = True`` forces the event engine to
record every live tick it fast-forwards over (the step a naive stepper would
have produced: no message, no inputs, no timeout — just the sampled detector
value). Observers that leave it ``False`` let the engine skip idle stretches
in O(1).

Every loop — the generic engine, the Python fused loop and the C tick
loop — dispatches an executed step through ``on_step_raw`` alone, so which
hook an observer overrides never decides which loop a run takes. Idle ticks
are dispatched through ``on_idle_step``: the engine hands over the four
scalars that fully determine an idle step and the base class feeds them to
``on_step_raw`` as a lambda step. Recorders override the idle hooks to
append straight into the columnar :class:`~repro.sim.runs.StepStore`, so
full-fidelity runs allocate no dataclass per fast-forwarded tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.sim.errors import ConfigurationError
from repro.sim.runs import ReceivedMessage, RunRecord, StepRecord, StepStore
from repro.sim.types import ProcessId, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scheduler imports us)
    from repro.sim.scheduler import Simulation

#: valid values of ``Simulation(record=...)``, highest fidelity first.
RECORD_LEVELS = ("full", "outputs", "metrics", "none")


class SimObserver:
    """Base class for simulation observers; override the hooks you need.

    Hooks are called synchronously from the scheduler, in the order events
    happen. Observers must not mutate simulation state.
    """

    #: When True, the event engine records idle live ticks instead of
    #: skipping them, so the step hooks see every step the naive stepper
    #: would have taken.
    wants_idle_steps: bool = False

    def on_step(self, sim: "Simulation", record: StepRecord) -> None:
        """One step was taken (or, while idle steps are recorded, an idle
        tick passed), as a record built by the base :meth:`on_step_raw`.
        The simple hook: an override of :meth:`on_step_raw` replaces it."""

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
        produced; the default feeds it to :meth:`on_step_raw` as a lambda
        step with no inputs, outputs, timeout or sends, so an observer of
        either step hook sees every step. Override this to skip that call
        on the fast-forward hot path.
        """
        self.on_step_raw(sim, index, t, pid, -1, None, -1, fd_value, (), (), False, 0, 0)

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
        fd_value_at = sim._fd_value
        index = start_index
        for t in range(start, end):
            pid = t % n
            self.on_idle_step(sim, index, t, pid, fd_value_at(pid, t))
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
        """An executed step, decomposed into its raw fields: the one hook
        every loop calls per step, the C tick loop included.

        ``sender`` is -1 for a lambda step (then ``payload`` is None and
        ``send_time`` -1). The base implementation builds the
        :class:`StepRecord` and calls :meth:`on_step`, so an observer
        overrides whichever of the two it likes; an override of this one
        replaces ``on_step``, which the engine then never calls.
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

    def on_log(self, sim: "Simulation", t: Time, pid: ProcessId, event: Any) -> None:
        """A process logged a diagnostic event during a step."""

    def on_finish(self, sim: "Simulation") -> None:
        """A run loop (``run_until`` / ``run_steps`` / quiescence) returned."""


class OutputMonitor(SimObserver):
    """A fold over a run's output history, fed live or by replay.

    Attached through ``observers=`` it rides whichever loop the run takes
    (the C tick loop at ``record="metrics"`` included), and ``on_step_raw``
    hands each step's outputs to :meth:`fold`. :meth:`replay` makes the same
    ``fold`` calls from a retained run's
    :meth:`~repro.sim.runs.RunRecord.output_stream`, so a live monitor and
    a replay of the same run end in equal states.
    """

    def fold(self, t: Time, pid: ProcessId, outputs: tuple[Any, ...]) -> None:
        """Fold one step's non-empty outputs, emitted by ``pid`` at ``t``."""
        raise NotImplementedError

    def on_step_raw(
        self, sim, index, t, pid, sender, payload, send_time, fd_value,
        inputs, outputs, timeout_fired, sent, received_count,
    ) -> None:
        if outputs:
            self.fold(t, pid, outputs)

    def replay(self, run: RunRecord):
        """Fold a run retained at ``record="outputs"`` or ``"full"``."""
        for t, pid, outputs in run.output_stream():
            self.fold(t, pid, outputs)
        return self


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


class FullRecorder(SimObserver):
    """``record="full"``: retain the complete run record, seed-identical.

    Executed steps are decomposed into the run's columnar
    :class:`~repro.sim.runs.StepStore`; idle ticks take the
    ``on_idle_step`` / ``on_idle_span`` fast paths and never materialize a
    record at all.
    """

    wants_idle_steps = True

    def __init__(self, run: RunRecord) -> None:
        if not isinstance(run.steps, StepStore):
            raise ConfigurationError(
                "FullRecorder needs a columnar run; build it with "
                "RunRecord(n, pattern)"
            )
        self.run = run
        self._store = run.steps

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
        self._store.append_exec(
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
        self._store.append_idle(index, t, pid, fd_value)
        run = self.run
        if t > run.end_time:  # idle steps carry no inputs/outputs to fold
            run.end_time = t

    def on_idle_span(
        self, sim: "Simulation", start_index: int, start: Time, end: Time
    ) -> None:
        self._store.extend_idle_span(
            start_index, start, end, sim.n, sim.detector, sim._fd_settle
        )
        run = self.run
        if end - 1 > run.end_time:
            run.end_time = end - 1

    def on_log(self, sim: "Simulation", t: Time, pid: ProcessId, event: Any) -> None:
        self.run.log.append((t, pid, event))


class OutputsRecorder(SimObserver):
    """``record="outputs"``: histories and log only; no step retention."""

    def __init__(self, run: RunRecord) -> None:
        self.run = run

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
        # come from the executed steps alone; extend it to the last live tick
        # the clock consumed — the same value a full-fidelity record ends on.
        if sim.last_live_tick > self.run.end_time:
            self.run.end_time = sim.last_live_tick


class MetricsRecorder(SimObserver):
    """``record="metrics"``: aggregate counters only."""

    def __init__(self, metrics: RunMetrics) -> None:
        self.metrics = metrics

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
