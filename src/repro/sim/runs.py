"""Run records: the paper's runs ``R = (F, H, H_I, H_O, S, T)``.

The scheduler produces a :class:`RunRecord` per simulation: the failure
pattern ``F``, the sampled failure detector history ``H`` (values actually
observed at steps), the input history ``H_I``, the output history ``H_O``,
the schedule ``S`` (one :class:`StepRecord` per step) and the times ``T``
(embedded in each step record).

Storage is *columnar*: full-fidelity runs are long and step-dense, so the
schedule lives in a :class:`StepStore` — parallel ``array``/list columns for
time, pid, detector sample (values interned), message fields, and the
aggregate counters, with the rare inputs/outputs kept in sparse
position-keyed dicts. :class:`StepRecord` instances are *lazy views*: they
are materialized on access (``steps[i]``, iteration, :meth:`RunRecord.steps_of`)
and never retained, so a million-tick run costs a few flat arrays instead of
a million dataclass objects. A :class:`StepStore` compares equal to a plain
list of equal :class:`StepRecord` s, and a ``RunRecord`` may be built over
either representation — the list form is kept as the differential oracle
for the columnar store (``LegacyFullRecorder`` in ``tests/helpers.py``).

Property checkers (``repro.properties``) consume these records; checkers
that only need times or detector samples should use the column queries
(:meth:`RunRecord.step_times`, :meth:`RunRecord.fd_samples`) which skip view
construction entirely.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Iterator

from repro.sim.failures import FailurePattern
from repro.sim.types import ProcessId, Time


@dataclass(frozen=True)
class ReceivedMessage:
    """The message consumed by a step (``None`` payload means lambda)."""

    sender: ProcessId
    payload: Any
    send_time: Time


@dataclass(frozen=True)
class StepRecord:
    """One step of the schedule ``S`` with its time ``T[i]``."""

    index: int
    time: Time
    pid: ProcessId
    message: ReceivedMessage | None
    fd_value: Any
    inputs: tuple[Any, ...] = ()
    outputs: tuple[Any, ...] = ()
    timeout_fired: bool = False
    #: messages sent in this step (broadcasts count one per receiver).
    sent: int = 0
    #: receives in this step (> 1 only when the simulation batches messages).
    received_count: int = 0


class StepStore:
    """Columnar storage of a schedule: parallel arrays, lazy record views.

    Scalar columns are ``array``/``bytearray`` (no per-step object retention;
    opaque to the garbage collector), object columns are lists of shared
    references (detector samples are interned, payloads are the very objects
    the envelopes carried). ``_msg_sender < 0`` marks a step without a
    message; inputs/outputs are sparse dicts keyed by position because only
    steps that consumed an input or produced output carry them.
    """

    __slots__ = (
        "_index",
        "_time",
        "_pid",
        "_fd",
        "_msg_sender",
        "_msg_payload",
        "_msg_send_time",
        "_inputs",
        "_outputs",
        "_timeout",
        "_sent",
        "_received",
        "_fd_intern",
    )

    def __init__(self) -> None:
        self._index = array("q")
        self._time = array("q")
        self._pid = array("i")
        self._fd: list[Any] = []
        self._msg_sender = array("i")
        self._msg_payload: list[Any] = []
        self._msg_send_time = array("q")
        self._inputs: dict[int, tuple[Any, ...]] = {}
        self._outputs: dict[int, tuple[Any, ...]] = {}
        self._timeout = bytearray()
        self._sent = array("i")
        self._received = array("i")
        #: detector samples repeat heavily (a stable leader is one tuple);
        #: hashable values are interned so the column holds shared refs.
        self._fd_intern: dict[Any, Any] = {}

    # -- appending ----------------------------------------------------------

    def _intern_fd(self, value: Any) -> Any:
        if value is None:
            return None
        try:
            return self._fd_intern.setdefault(value, value)
        except TypeError:  # unhashable sample (e.g. a composite dict)
            return value

    def append(self, step: StepRecord) -> None:
        """Decompose ``step`` into the columns (compat / executed-step path)."""
        position = len(self._index)
        self._index.append(step.index)
        self._time.append(step.time)
        self._pid.append(step.pid)
        self._fd.append(self._intern_fd(step.fd_value))
        message = step.message
        if message is None:
            self._msg_sender.append(-1)
            self._msg_payload.append(None)
            self._msg_send_time.append(-1)
        else:
            self._msg_sender.append(message.sender)
            self._msg_payload.append(message.payload)
            self._msg_send_time.append(message.send_time)
        if step.inputs:
            self._inputs[position] = step.inputs
        if step.outputs:
            self._outputs[position] = step.outputs
        self._timeout.append(1 if step.timeout_fired else 0)
        self._sent.append(step.sent)
        self._received.append(step.received_count)

    def append_exec(
        self,
        index: int,
        time: Time,
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
        """Append an executed step from its raw fields (no record object).

        ``sender`` is ``-1`` for a lambda step (then ``payload`` must be
        None and ``send_time`` -1). The scheduler's raw recording path calls
        this through :meth:`~repro.sim.observers.FullRecorder.on_step_raw`.
        """
        position = len(self._index)
        self._index.append(index)
        self._time.append(time)
        self._pid.append(pid)
        self._fd.append(None if fd_value is None else self._intern_fd(fd_value))
        self._msg_sender.append(sender)
        self._msg_payload.append(payload)
        self._msg_send_time.append(send_time)
        if inputs:
            self._inputs[position] = inputs
        if outputs:
            self._outputs[position] = outputs
        self._timeout.append(1 if timeout_fired else 0)
        self._sent.append(sent)
        self._received.append(received_count)

    def append_idle(
        self, index: int, time: Time, pid: ProcessId, fd_value: Any
    ) -> None:
        """Append an idle step without building any intermediate objects.

        The hot path of full-fidelity fast-forwarding: the record an idle
        tick would materialize is entirely determined by these four scalars.
        """
        self._index.append(index)
        self._time.append(time)
        self._pid.append(pid)
        self._fd.append(None if fd_value is None else self._intern_fd(fd_value))
        self._msg_sender.append(-1)
        self._msg_payload.append(None)
        self._msg_send_time.append(-1)
        self._timeout.append(0)
        self._sent.append(0)
        self._received.append(0)

    def extend_idle_span(
        self,
        start_index: int,
        start: Time,
        end: Time,
        n: int,
        detector: Any,
        settle: tuple[Time, Any],
    ) -> None:
        """Append one idle step per tick of ``[start, end)``, in bulk.

        The round-robin uniform-span fast path: every tick is live and idle,
        pids follow ``t % n``, and all message/counter columns are constant —
        so everything except the detector samples extends at C speed.
        ``settle`` is the simulation's ``(t, value)`` settle point: ticks
        from its ``t`` on sample ``value``, earlier ones query ``detector``
        per ``(pid, t)`` (the engine's purity assumption makes per-observer
        querying sound), for the whole span before any column moves: a
        raising query leaves the store as it was.
        """
        k = end - start
        settle_at, settled = settle
        cut = min(max(settle_at, start), end)
        intern = self._intern_fd
        samples = []
        if cut > start:
            query = detector.query
            samples = [intern(query(t % n, t)) for t in range(start, cut)]
        if cut < end:
            samples += [intern(settled)] * (end - cut)
        self._index.extend(range(start_index, start_index + k))
        self._time.extend(range(start, end))
        self._pid.extend([t % n for t in range(start, end)])
        self._fd.extend(samples)
        minus_ones = [-1] * k
        zeros = [0] * k
        self._msg_sender.extend(minus_ones)
        self._msg_payload.extend([None] * k)
        self._msg_send_time.extend(minus_ones)
        self._timeout.extend(bytes(k))
        self._sent.extend(zeros)
        self._received.extend(zeros)

    def square(self) -> None:
        """Cut every column back to the shortest, with the inputs and
        outputs of the rows cut: a raise between two columns' appends
        leaves the steps every column holds."""
        columns = (
            self._index, self._time, self._pid, self._fd, self._msg_sender,
            self._msg_payload, self._msg_send_time, self._timeout, self._sent,
            self._received,
        )
        rows = min(map(len, columns))
        for column in columns:
            if len(column) > rows:
                del column[rows:]
        for sparse in (self._inputs, self._outputs):
            for position in list(sparse):
                if position >= rows:
                    del sparse[position]

    # -- lazy views ---------------------------------------------------------

    def _view(self, i: int) -> StepRecord:
        sender = self._msg_sender[i]
        if sender < 0:
            message = None
        else:
            message = ReceivedMessage(
                sender=sender,
                payload=self._msg_payload[i],
                send_time=self._msg_send_time[i],
            )
        return StepRecord(
            index=self._index[i],
            time=self._time[i],
            pid=self._pid[i],
            message=message,
            fd_value=self._fd[i],
            inputs=self._inputs.get(i, ()),
            outputs=self._outputs.get(i, ()),
            timeout_fired=bool(self._timeout[i]),
            sent=self._sent[i],
            received_count=self._received[i],
        )

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, key: int | slice) -> StepRecord | list[StepRecord]:
        if isinstance(key, slice):
            return [self._view(i) for i in range(*key.indices(len(self._index)))]
        size = len(self._index)
        if key < 0:
            key += size
        if not 0 <= key < size:
            raise IndexError("step index out of range")
        return self._view(key)

    def __iter__(self) -> Iterator[StepRecord]:
        for i in range(len(self._index)):
            yield self._view(i)

    # -- equality -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StepStore):
            return (
                self._index == other._index
                and self._time == other._time
                and self._pid == other._pid
                and self._fd == other._fd
                and self._msg_sender == other._msg_sender
                and self._msg_payload == other._msg_payload
                and self._msg_send_time == other._msg_send_time
                and self._inputs == other._inputs
                and self._outputs == other._outputs
                and self._timeout == other._timeout
                and self._sent == other._sent
                and self._received == other._received
            )
        if isinstance(other, (list, tuple)):
            if len(other) != len(self._index):
                return False
            return all(view == step for view, step in zip(self, other))
        return NotImplemented

    __hash__ = None  # mutable container

    def __repr__(self) -> str:
        return f"StepStore(len={len(self._index)})"


@dataclass
class RunRecord:
    """A complete recorded run.

    ``steps`` and ``end_time`` are exact between run calls.  Read from a
    handler, detector or observer in the middle of one, they may lag: the
    compiled tick loop appends ``steps`` rows in bulk (up to
    ``repro.sim._ckernel.STAGE_ROWS`` at a time) and moves ``end_time``
    with them.
    """

    n: int
    failure_pattern: FailurePattern
    #: the schedule ``S``: columnar by default; a plain list of
    #: :class:`StepRecord` is accepted for hand-built runs and as the
    #: legacy-recording oracle (the two forms compare equal element-wise).
    steps: StepStore | list[StepRecord] = field(default_factory=StepStore)
    #: per-process input history: list of (time, value)
    input_history: dict[ProcessId, list[tuple[Time, Any]]] = field(default_factory=dict)
    #: per-process output history: list of (time, value)
    output_history: dict[ProcessId, list[tuple[Time, Any]]] = field(default_factory=dict)
    #: diagnostic log: list of (time, pid, event)
    log: list[tuple[Time, ProcessId, Any]] = field(default_factory=list)
    seed: int = 0
    end_time: Time = 0
    #: lazily maintained per-pid index of step *positions* (derived; not compared).
    _steps_by_pid: dict[ProcessId, list[int]] = field(
        default_factory=dict, compare=False, repr=False
    )
    #: how many entries of ``steps`` the per-pid index has absorbed.
    _indexed_count: int = field(default=0, compare=False, repr=False)

    # -- recording (scheduler / recorder use) ----------------------------------

    def record_step(self, step: StepRecord) -> None:
        """Retain ``step`` in the schedule and fold it into the histories."""
        self.steps.append(step)
        self.record_histories_raw(step.pid, step.time, step.inputs, step.outputs)

    def record_histories_raw(
        self,
        pid: ProcessId,
        time: Time,
        inputs: tuple[Any, ...],
        outputs: tuple[Any, ...],
    ) -> None:
        """Fold a step's raw fields into ``H_I`` / ``H_O`` / ``end_time``
        without retaining it — the one history fold every recorder uses.
        Plain loops, no closure over ``time``: Python 3.11 leaks a frame's
        arguments when allocating a closure cell fails."""
        if time > self.end_time:
            self.end_time = time
        if inputs:
            bucket = self.input_history.setdefault(pid, [])
            for value in inputs:
                bucket.append((time, value))
        if outputs:
            bucket = self.output_history.setdefault(pid, [])
            for value in outputs:
                bucket.append((time, value))

    # -- per-pid step index ----------------------------------------------------

    def _index_by_pid(self) -> dict[ProcessId, list[int]]:
        """Extend the per-pid position index over steps appended since last use.

        The index is built lazily so code that appends to ``steps`` directly
        (tests, hand-built runs) stays correct, and queries after a long run
        pay the scan once instead of once per call. It holds positions, not
        records — views are materialized only when a query hands them out.
        """
        steps = self.steps
        total = len(steps)
        if self._indexed_count != total:
            by_pid = self._steps_by_pid
            if isinstance(steps, StepStore):
                pid_column = steps._pid
                for i in range(self._indexed_count, total):
                    by_pid.setdefault(pid_column[i], []).append(i)
            else:
                for i in range(self._indexed_count, total):
                    by_pid.setdefault(steps[i].pid, []).append(i)
            self._indexed_count = total
        return self._steps_by_pid

    # -- queries --------------------------------------------------------------

    def outputs_of(self, pid: ProcessId) -> list[tuple[Time, Any]]:
        """The timestamped output history of ``pid``."""
        return list(self.output_history.get(pid, []))

    def inputs_of(self, pid: ProcessId) -> list[tuple[Time, Any]]:
        """The timestamped input history of ``pid``."""
        return list(self.input_history.get(pid, []))

    def outputs_matching(
        self, pid: ProcessId, predicate: Callable[[Any], bool]
    ) -> list[tuple[Time, Any]]:
        """Outputs of ``pid`` satisfying ``predicate``, in order."""
        return [(t, v) for t, v in self.outputs_of(pid) if predicate(v)]

    def tagged_outputs(self, pid: ProcessId, tag: str) -> list[tuple[Time, Any]]:
        """Outputs of the form ``(tag, ...)``; returns (time, payload tuple).

        Protocols in this repository emit structured outputs as tuples whose
        first element is a string tag (e.g. ``("decide", k, v)``); this helper
        filters one tag and strips it.
        """
        result: list[tuple[Time, Any]] = []
        for t, value in self.outputs_of(pid):
            if isinstance(value, tuple) and value and value[0] == tag:
                result.append((t, value[1:]))
        return result

    def output_stream(self) -> list[tuple[Time, ProcessId, tuple[Any, ...]]]:
        """The output history as the live loop emitted it: one
        ``(time, pid, outputs)`` per step with output, in
        ``(time, pid, emission)`` order. At most one process steps per
        tick, so that is the order ``on_step_raw`` sees."""
        stream = [
            (t, pid, tuple(value for __, value in group))
            for pid, history in sorted(self.output_history.items())
            for t, group in groupby(history, key=itemgetter(0))
        ]
        stream.sort(key=itemgetter(0, 1))
        return stream

    def iter_steps(self) -> Iterator[StepRecord]:
        """All steps in schedule order, as lazy views (nothing retained)."""
        return iter(self.steps)

    def steps_of(self, pid: ProcessId) -> Iterator[StepRecord]:
        """Steps taken by ``pid``, in schedule order (lazy views)."""
        steps = self.steps
        return (steps[i] for i in self._index_by_pid().get(pid, ()))

    def step_count(self, pid: ProcessId | None = None) -> int:
        """Number of steps, overall or for one process."""
        if pid is None:
            return len(self.steps)
        return len(self._index_by_pid().get(pid, ()))

    def step_times(self, pid: ProcessId) -> list[Time]:
        """The times of ``pid``'s steps, read straight off the time column."""
        positions = self._index_by_pid().get(pid, ())
        steps = self.steps
        if isinstance(steps, StepStore):
            time_column = steps._time
            return [time_column[i] for i in positions]
        return [steps[i].time for i in positions]

    @property
    def correct(self) -> frozenset[ProcessId]:
        """Correct processes of the run's failure pattern."""
        return self.failure_pattern.correct

    def fd_samples(self, pid: ProcessId) -> list[tuple[Time, Any]]:
        """Detector values observed by ``pid`` at its steps (history ``H``)."""
        positions = self._index_by_pid().get(pid, ())
        steps = self.steps
        if isinstance(steps, StepStore):
            time_column = steps._time
            fd_column = steps._fd
            return [(time_column[i], fd_column[i]) for i in positions]
        return [(steps[i].time, steps[i].fd_value) for i in positions]
