"""The fair step scheduler and the event-driven fast-forward engine.

Implements the paper's execution model: a discrete global clock; at each tick
exactly one process may take a step (crashed processes' ticks are lost); steps
consume at most one message — the oldest deliverable one — or the empty
message lambda; the failure detector is queried at every step; inputs from the
application are injected as scheduled; local periodic timeouts drive the
"On local timeout" clauses of the paper's algorithms.

Fairness: with round-robin scheduling process ``p`` steps at every tick
``t ≡ p (mod n)`` while alive, so every correct process takes infinitely many
steps; with seeded random scheduling each block of ``n`` ticks is a random
permutation of the processes, preserving fairness while exercising different
interleavings. Block permutations are *counter-based*: block ``b``'s
permutation is :func:`~repro.sim.types.block_permutation` of ``(seed, b)``,
a Fisher–Yates shuffle driven by an integer mixer keyed on the two words,
not a draw from a shared sequential stream, so any block's schedule can be
derived without visiting the blocks before it — the property the blockwise
fast-forward below relies on. The seed of a randomly scheduled run must be
an ``int`` (not a ``bool``) and is taken mod 2**64: seeds that agree mod
2**64 run the same schedule.

Engines
=======

Most ticks of a long run are *idle*: the scheduled process has no deliverable
message, no pending input, no due timeout, and has already started — so no
handler runs and the step is the empty ``(p, lambda, d, -)`` step. Two engines
drive the clock:

- ``engine="naive"`` — the seed behaviour: every tick pays full step cost.
- ``engine="event"`` (default) — finds the earliest *interesting* tick (the
  minimum over processes of: next deliverable message, next pending input,
  next due local timeout, the pending ``on_start``; gated by the process's
  crash boundary) and fast-forwards the clock over idle stretches. The
  minimum is one O(n) scan over two per-process cursors — the network's
  next-delivery time ``_next_at`` and the scheduler's local event time
  ``_local_event``, each kept current in O(1) by the step that moves it —
  so a jump never looks into a message heap or a timeout table. Both
  cursors, and the next-timeout times ``_next_timeout`` behind the local
  one, are ``array('q')``: the C tick loop reads and writes these very
  buffers, so neither side keeps a copy. An empty queue's cursor reads
  :data:`~repro.sim.types.NO_MESSAGE`, which no tick reaches, so the scan
  is plain ``min`` arithmetic.
  Under round-robin scheduling the jump is O(1) per skipped stretch. Under
  random scheduling the skip is *blockwise*: every tick strictly before the
  earliest pending event is idle regardless of which permutation the
  scheduler draws, so whole idle spans are accounted arithmetically and only
  the blocks straddling a span edge at or past a crash time, or a crash
  boundary, have their permutation derived (each process holds exactly one
  slot per block, so a full block's live-tick count needs no permutation at
  all, and a span wholly before the first crash needs none either).
  Permutations are keyed by block index, which is what makes deriving them
  out of order — and skipping them entirely — sound. On the
  ``compiled-loop`` kernel the same loop runs in C
  (:func:`repro.sim.kernel.fused_runner`): under round-robin at every
  ``record`` level, under random scheduling whenever nothing materializes
  idle steps. The methods here are the single pure-Python implementation,
  its fallback and its oracle.

Fast-forward invariants (checked by ``tests/test_engine_differential.py``):

- tick parity: the clock visits the same values; ``sim.time`` agrees with the
  naive engine at every run-loop boundary;
- crashed ticks are consumed exactly as before (no record, clock advances);
- with ``record="full"`` the engine materializes the idle-step records a
  naive stepper would have produced (empty message, sampled detector value),
  so the :class:`RunRecord` is byte-identical to the naive engine's;
- the scheduling RNG stream is identical across engines and fidelity levels,
  so a run's trajectory never depends on how it is observed.

The engine assumes detector histories are pure functions of ``(pid, t)`` —
true of the paper's model, where ``H`` is a fixed history — because reduced
fidelity levels skip the per-tick queries that idle full-fidelity steps
perform.

Recording is delegated to observers (see :mod:`repro.sim.observers`):
``record=`` selects a built-in recorder fidelity, ``observers=`` attaches
additional :class:`~repro.sim.observers.SimObserver` instances.

A raise ends the run: a step is atomic in the model, so one that raised is
no step. The exception propagates unchanged and is kept as ``sim.failed``;
every later run call (``step``, ``run_until``, ``run_steps``,
``run_until_quiescent``) raises :class:`~repro.sim.errors.SimulationFailed`
chained to it, without moving the clock. The loops agree on the exception
and on releasing what they hold, not on the half-step they leave; at
``record="full"`` the step store keeps only rows every column holds
(``StepStore.square``), so a raise between two column appends -- an
allocation failing, say -- leaves it rectangular. An argument refused
before the loop starts (``validate_time``) fails nothing.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from contextlib import contextmanager
from typing import Any, Iterator, Protocol, Sequence

from repro.sim.context import BROADCAST_ALL, Context
from repro.sim.errors import ConfigurationError, SimulationFailed
from repro.sim.failures import FailurePattern
from repro.sim.kernel import (
    DEFAULT_KERNEL,
    KERNELS,
    fused_path_name,
    fused_runner,
    make_network,
)
from repro.sim.envs import DelayModel, FixedDelay
from repro.sim.observers import RunMetrics, SimObserver, make_recorder
from repro.sim.process import Process
from repro.sim.runs import RunRecord, StepStore
from repro.sim.types import (
    NEVER,
    NO_MESSAGE,
    ProcessId,
    Time,
    block_permutation,
    check_seed,
    validate_process_id,
    validate_time,
)


class DetectorHistory(Protocol):
    """Anything that can answer ``H(p, t)`` (see ``repro.detectors.base``)."""

    def query(self, pid: ProcessId, t: Time) -> Any:
        ...


def _settle_point(detector: DetectorHistory | None) -> tuple[Time, Any]:
    """``Simulation._fd_settle`` of ``detector``: its settle tick, at most
    ``NO_MESSAGE`` (a tick no run reaches, and an int64 for the C loop),
    and its settled value."""
    if detector is None:
        return 0, None
    settles = getattr(detector, "settles", None)
    point = settles() if settles is not None else None
    if point is None:
        return NO_MESSAGE, None
    t, value = point
    return min(t, NO_MESSAGE), value


def _overrides(observer: SimObserver, hook: str) -> bool:
    """True iff ``observer``'s class overrides the named base-class hook."""
    return getattr(type(observer), hook) is not getattr(SimObserver, hook)


def _check_observer(observer: Any) -> None:
    """Refuse anything that is not a :class:`SimObserver`, and observers
    still defining the removed per-envelope hooks ``on_send`` /
    ``on_deliver`` (nothing would call them; a step's consumed message is
    on ``on_step`` / ``on_step_raw``, its send count on the same record)."""
    if not isinstance(observer, SimObserver):
        raise ConfigurationError(
            f"observers must be SimObserver instances, got {observer!r}"
        )
    for hook in ("on_send", "on_deliver"):
        if hasattr(type(observer), hook):
            raise ConfigurationError(
                f"{type(observer).__name__}.{hook} is a removed observer "
                f"hook and would never be called; observe steps instead "
                f"(on_step / on_step_raw carry the consumed message)"
            )


class Simulation:
    """Drives a set of process automata to produce a run record.

    The record (``run``) is exact between run calls; in the middle of one
    its ``steps`` and ``end_time`` may lag (see :class:`RunRecord`).
    """

    def __init__(
        self,
        processes: Sequence[Process],
        *,
        failure_pattern: FailurePattern | None = None,
        detector: DetectorHistory | None = None,
        delay_model: DelayModel | None = None,
        seed: int = 0,
        timeout_interval: int | Sequence[int] = 8,
        scheduling: str = "round_robin",
        message_batch: int = 1,
        engine: str = "event",
        kernel: str = DEFAULT_KERNEL,
        record: str = "full",
        observers: Sequence[SimObserver] = (),
    ) -> None:
        self.n = len(processes)
        if self.n < 1:
            raise ConfigurationError("need at least one process")
        self.processes = list(processes)
        for pid, process in enumerate(self.processes):
            process.attach(pid, self.n)
        self.failure_pattern = failure_pattern or FailurePattern.no_failures(self.n)
        if self.failure_pattern.n != self.n:
            raise ConfigurationError(
                f"failure pattern is over n={self.failure_pattern.n} processes, "
                f"simulation has n={self.n}"
            )
        if kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown kernel {kernel!r}; expected one of {KERNELS}"
            )
        #: data-plane selection (see repro.sim.kernel).
        self.kernel = kernel
        self.network = make_network(
            self.n, delay_model or FixedDelay(1), kernel=kernel
        )
        self.detector = detector
        #: ``(t, value)``: from tick ``t`` on, every loop takes ``value`` as
        #: each step's detector sample without querying the history (see
        #: ``FailureDetectorHistory.settles``). Read once, here: ``(0, None)``
        #: without a detector, ``(NO_MESSAGE, None)`` for a history that
        #: never settles (or has no ``settles``).
        self._fd_settle = _settle_point(detector)
        self.seed = seed
        if scheduling not in ("round_robin", "random"):
            raise ConfigurationError(f"unknown scheduling policy {scheduling!r}")
        if scheduling == "random":
            # block_permutation mixes the seed as a 64-bit word (mod 2**64)
            check_seed(seed, "random scheduling")
        self.scheduling = scheduling
        if engine not in ("event", "naive"):
            raise ConfigurationError(f"unknown engine {engine!r}")
        self.engine = engine

        if isinstance(timeout_interval, int):
            intervals = [timeout_interval] * self.n
        else:
            intervals = list(timeout_interval)
            if len(intervals) != self.n:
                raise ConfigurationError("one timeout interval per process required")
        if any(i < 1 for i in intervals):
            raise ConfigurationError("timeout intervals must be >= 1")
        self.timeout_intervals = intervals
        #: per process, the tick its next timeout is due (``array('q')``).
        self._next_timeout = array("q", intervals)
        if message_batch < 1:
            raise ConfigurationError("message_batch must be >= 1")
        #: maximum receives per step. The paper's step consumes exactly one
        #: message; a batch > 1 coarsens several consecutive steps of the same
        #: process into one tick, which is necessary for gossip-heavy stacks
        #: whose inflow otherwise exceeds the one-message-per-tick drain rate.
        self.message_batch = message_batch
        #: pooled per-step context. Safe to reuse: handlers never retain the
        #: context past their step (the automaton contract). Its three
        #: effect buffers are one list each for its whole lifetime: every
        #: loop consumes a step's entries and empties each list in place, so
        #: after a step all three are empty (the C loop holds the same lists).
        self._ctx = Context(pid=0, n=self.n, time=0)

        #: the clock, ``array('q')`` on every rung: the next tick to run
        #: (``time``), the last tick a live process consumed
        #: (``last_live_tick``, -1 before any) and the next step's index
        #: (``_step_index``) — the properties below. The C loop exports it
        #: beside the cursors and stores into it in place; the Python loops
        #: bind it locally.
        self._clock = array("q", [0, -1, 0])
        #: the exception a run call raised out of, or None (see the module
        #: docstring: a raise ends the run).
        self.failed: BaseException | None = None
        self._started: set[ProcessId] = set()
        self._inputs: list[list[tuple[Time, int, Any]]] = [[] for _ in range(self.n)]
        self._input_seq = itertools.count()
        self._permutation: list[ProcessId] = list(range(self.n))
        #: block index the cached permutation was derived for (-1 = none yet).
        self._perm_block = -1
        self.run = RunRecord(self.n, self.failure_pattern, seed=seed)
        self.record_level = record
        #: aggregate counters; populated by the ``record="metrics"`` recorder
        #: (and ``idle_ticks_skipped`` by the event engine in any reduced
        #: fidelity). Use :func:`repro.analysis.metrics.run_metrics` to derive
        #: the same numbers from a full-fidelity run.
        self.metrics = RunMetrics(self.n)
        recorder = make_recorder(record, self.run, self.metrics)
        self._observers: list[SimObserver] = (
            [recorder] if recorder is not None else []
        ) + list(observers)
        for observer in self._observers:
            _check_observer(observer)
        #: the *local* next-event cursor: per process, the earliest time
        #: with scheduler-side work pending — the next due timeout or
        #: pending input, or 0 while the process has not run ``on_start``
        #: (its first step is always interesting). Maintained by
        #: :meth:`_refresh_local` after every executed step and lowered by
        #: :meth:`add_input`; :meth:`_next_event_query` scans it beside the
        #: network's ``_next_at`` cursors. ``array('q')``, like them.
        self._local_event = array("q", [0]) * self.n
        self._rebuild_dispatch()

    # -- observer dispatch -----------------------------------------------------

    def _rebuild_dispatch(self) -> None:
        """Derive every observer dispatch table from ``self._observers``.

        Called at construction and again by :meth:`attach_observer` /
        :meth:`detach_observer`: the fused-runner selection (including the
        ``compiled-loop`` C rung) reads ``wants_idle_steps`` and the lists
        below, so an observer change mid-lifetime re-resolves the ladder.
        """
        step_hooks = ("on_step", "on_step_raw")
        #: executed-step dispatch, one hook on every loop: ``on_step_raw``
        #: (whose base builds the record of an ``on_step``-only observer).
        self._step_observers = [
            o for o in self._observers if any(_overrides(o, h) for h in step_hooks)
        ]
        #: observers that must see idle ticks when materialization is forced:
        #: every step observer (the base idle hooks feed ``on_step_raw``),
        #: plus recorders overriding the idle hooks themselves.
        idle_hooks = (*step_hooks, "on_idle_step", "on_idle_span")
        self._idle_step_observers = [
            o for o in self._observers if any(_overrides(o, h) for h in idle_hooks)
        ]
        self._log_observers = [o for o in self._observers if _overrides(o, "on_log")]
        self._finish_observers = [
            o for o in self._observers if _overrides(o, "on_finish")
        ]
        self._materialize_idle = any(o.wants_idle_steps for o in self._observers)
        #: fused dense-tick runner (see repro.sim.kernel); None when this
        #: configuration must take the generic engine paths, with the reason
        #: it is not the C tick loop. Resolved last: eligibility reads the
        #: observer dispatch tables above.
        self._fused_run, self._fused_reason = fused_runner(self)

    def attach_observer(self, observer: SimObserver) -> None:
        """Attach ``observer`` mid-lifetime and re-resolve dispatch.

        The engine re-evaluates every gate before the next tick: an
        observer with ``wants_idle_steps`` moves a random-scheduled run off
        the C loop, while a step observer of either hook keeps the loop it
        is on.
        """
        _check_observer(observer)
        self._observers.append(observer)
        self._rebuild_dispatch()

    def detach_observer(self, observer: SimObserver) -> None:
        """Detach a previously attached observer and re-resolve dispatch."""
        try:
            self._observers.remove(observer)
        except ValueError:
            raise ConfigurationError(
                f"observer {observer!r} is not attached"
            ) from None
        self._rebuild_dispatch()

    # -- the clock -------------------------------------------------------------

    @property
    def time(self) -> Time:
        """The next tick to run (``_clock[0]``)."""
        return self._clock[0]

    @time.setter
    def time(self, value: Time) -> None:
        self._clock[0] = value

    @property
    def last_live_tick(self) -> Time:
        """The last tick consumed by a live (non-crashed) process, -1 before
        any (``_clock[1]``). Tracked by every loop so recorders can close
        reduced-fidelity run records on the end_time full fidelity produces."""
        return self._clock[1]

    @last_live_tick.setter
    def last_live_tick(self, value: Time) -> None:
        self._clock[1] = value

    @property
    def _step_index(self) -> int:
        """The index the next executed or recorded step takes (``_clock[2]``)."""
        return self._clock[2]

    @_step_index.setter
    def _step_index(self, value: int) -> None:
        self._clock[2] = value

    @property
    def fused_path(self) -> str | None:
        """The loop :meth:`run_until` runs this configuration on:
        ``"c-loop"`` (compiled tick loop, either schedule), ``"python"``
        (fused Python loop, round-robin only), or None (generic engine
        paths — always the case under ``engine="naive"``, and under
        ``scheduling="random"`` whenever the C loop cannot take the run).
        Re-resolved when observers attach or detach; copied into
        :attr:`metrics` at the end of every run call."""
        return fused_path_name(self._fused_run)

    @property
    def fused_reason(self) -> str | None:
        """Why :attr:`fused_path` is not ``"c-loop"`` — a short fixed
        string such as ``"kernel=packed"`` or ``"extension not loaded"``
        (the full list is in :func:`repro.sim.kernel.fused_runner`) — or
        None when it is."""
        return self._fused_reason

    # -- inputs ----------------------------------------------------------------

    def add_input(self, pid: ProcessId, time: Time, value: Any) -> None:
        """Schedule an application input for ``pid`` at (or after) ``time``."""
        validate_process_id(pid, self.n)
        validate_time(time)
        heapq.heappush(self._inputs[pid], (time, next(self._input_seq), value))
        if time < self._local_event[pid]:
            self._local_event[pid] = time

    # -- stepping ----------------------------------------------------------------

    def _scheduled_pid(self, t: Time) -> ProcessId:
        if self.scheduling == "round_robin":
            return t % self.n
        return self._permutation_for_block(t // self.n)[t % self.n]

    def _permutation_for_block(self, block: int) -> list[ProcessId]:
        """The schedule permutation of block ``block`` (counter-based).

        ``block_permutation(seed, block, n)`` (:mod:`repro.sim.types`),
        keyed on ``(seed, block)`` so any block's permutation is derivable
        without visiting earlier blocks: the naive stepper, the per-tick
        scan, the blockwise fast-forward and the C loop (which derives the
        same bits itself into a cache of its own) see identical schedules
        no matter which blocks they actually touch. Cached for one block:
        the walks and the span accounting look at the same block several
        times in a row.
        """
        if block != self._perm_block:
            self._permutation = block_permutation(self.seed, block, self.n)
            self._perm_block = block
        return self._permutation

    def step(self) -> None:
        """Advance the clock one tick; run the scheduled process if alive
        (a crashed process's tick is consumed silently). Observers see the
        step; read the run record for it."""
        with self._terminal():
            self._step()

    def _step(self) -> None:
        """:meth:`step`'s body, which the engine loops call per tick."""
        clock = self._clock  # [time, last_live_tick, _step_index]
        t = clock[0]
        clock[0] = t + 1
        pid = self._scheduled_pid(t)
        if self.failure_pattern.crashed(pid, t):
            return None
        clock[1] = t

        process = self.processes[pid]
        settle_at, settled = self._fd_settle
        fd_value = settled if t >= settle_at else self.detector.query(pid, t)
        ctx = self._ctx
        ctx.pid = pid
        ctx.time = t
        ctx.fd_value = fd_value

        if pid not in self._started:
            self._started.add(pid)
            process.on_start(ctx)

        inputs: list[Any] = []
        queue = self._inputs[pid]
        while queue and queue[0][0] <= t:
            __, __, value = heapq.heappop(queue)
            inputs.append(value)
            process.on_input(ctx, value)

        # One batched pop per tick instead of up to message_batch calls, as
        # ``(deliver_at, seq, sender, send_time, payload)`` tuples on every
        # kernel; pinned identical to repeated single pops by the tests.
        first_sender, first_payload, first_send_time = -1, None, -1
        messages = self.network.pop_deliverable_batch_raw(
            pid, t, self.message_batch
        )
        received_count = len(messages)
        if messages:
            first = messages[0]
            first_sender = first[2]
            first_payload = first[4]
            first_send_time = first[3]
        for message in messages:
            process.on_message(ctx, message[2], message[4])

        timeout_fired = False
        if t >= self._next_timeout[pid]:
            timeout_fired = True
            self._next_timeout[pid] = t + self.timeout_intervals[pid]
            process.on_timeout(ctx)

        outbox = ctx.drain_outbox()
        network = self.network
        sent = 0
        for receiver, payload in outbox:
            if receiver >= 0:
                network.send_packed(pid, receiver, payload, t)
                sent += 1
            else:
                # Broadcast sentinel (see repro.sim.context): one batched
                # delay-model pass over all receivers.
                sent += network.send_all_packed(
                    pid, payload, t, receiver == BROADCAST_ALL
                )
        outputs = ctx.drain_outputs()
        if self._log_observers:
            for event in ctx.drain_log():
                for observer in self._log_observers:
                    observer.on_log(self, t, pid, event)
        else:
            ctx._log.clear()

        self._refresh_local(pid)
        index = clock[2]
        clock[2] = index + 1
        inputs_t = tuple(inputs)
        outputs_t = tuple(outputs)
        for observer in self._step_observers:
            observer.on_step_raw(
                self, index, t, pid, first_sender, first_payload,
                first_send_time, fd_value, inputs_t, outputs_t,
                timeout_fired, sent, received_count,
            )

    def _refresh_local(self, pid: ProcessId) -> None:
        """Re-derive ``pid``'s local next-event time after an executed step.

        A step is the only place the local sources move (``on_start`` runs,
        inputs are consumed, the timeout is rescheduled), so refreshing here
        keeps the invariant: ``_local_event[pid]`` is 0 while unstarted, else
        ``min(next timeout, earliest pending input)``.
        """
        event_at = self._next_timeout[pid]
        queue = self._inputs[pid]
        if queue and queue[0][0] < event_at:
            event_at = queue[0][0]
        self._local_event[pid] = event_at

    # -- the event engine ------------------------------------------------------

    def _event_time(self, pid: ProcessId) -> Time:
        """Earliest time with work pending for ``pid`` (unclamped); O(1).

        The minimum of the local cursor (timeouts / inputs / pending
        ``on_start``) and the network's next-delivery cursor.
        """
        event_at = self._local_event[pid]
        deliver_at = self.network._next_at[pid]
        return deliver_at if deliver_at < event_at else event_at

    def _tick_interesting(self, pid: ProcessId, t: Time) -> bool:
        """True iff the step at tick ``t`` (scheduled: ``pid``) does any work."""
        if self.failure_pattern.crashed(pid, t):
            return False
        return self._event_time(pid) <= t

    def _next_event_query(self, now: Time, align_rr: bool) -> Time | None:
        """Earliest actionable tick at or after ``now``, or None.

        One scan over the per-process cursors: a process's event time is
        the earlier of its local cursor (timeouts / inputs / pending
        ``on_start``) and its network next-delivery cursor, clamped to
        ``now``. Under round-robin (``align_rr``) the candidate is that time
        aligned to the process's next scheduled slot; under random
        scheduling any permutation may schedule the owner at any slot, so
        the clamped time is the candidate itself. A candidate at or past
        its process's crash time is dropped — the process can never act on
        it. The C tick loop runs the same scan over the same cursors.
        """
        n = self.n
        crash_get = self.failure_pattern.crash_times.get
        next_at = self.network._next_at
        best: Time | None = None
        for pid, event_at in enumerate(self._local_event):
            deliver_at = next_at[pid]
            if deliver_at < event_at:
                event_at = deliver_at
            tick = event_at if event_at > now else now
            if align_rr:
                tick += (pid - tick) % n
            crash_at = crash_get(pid)
            if crash_at is not None and tick >= crash_at:
                continue
            if best is None or tick < best:
                best = tick
        return best

    def _fd_value(self, pid: ProcessId, t: Time) -> Any:
        """The detector sample of ``pid``'s step at ``t``: the settled value
        from the settle tick on, else the history's (the loops inline it)."""
        settle_at, settled = self._fd_settle
        if t >= settle_at:
            return settled
        return self.detector.query(pid, t)

    def _record_idle_step(self, t: Time, pid: ProcessId) -> None:
        """Record the step a naive stepper would produce for an idle tick.

        Dispatched through ``on_idle_step`` so columnar recorders append
        straight into their store; the base hook hands every other step
        observer the idle step through ``on_step_raw``.
        """
        fd_value = self._fd_value(pid, t)
        clock = self._clock  # [time, last_live_tick, _step_index]
        clock[1] = t
        index = clock[2]
        clock[2] = index + 1
        for observer in self._idle_step_observers:
            observer.on_idle_step(self, index, t, pid, fd_value)

    def _skip_span_rr(self, start: Time, end: Time) -> None:
        """Fast-forward the clock over ``[start, end)`` (round-robin, all idle)."""
        if start >= end:
            return
        if not self._materialize_idle:
            # Count live idle ticks and find the last one without touching
            # each tick: per process, its slots in the span are an arithmetic
            # progression clipped by its crash boundary. The C loop's
            # loop_count_idle ports this branch.
            n = self.n
            crash_times = self.failure_pattern.crash_times
            live = 0
            latest = -1
            for pid in range(n):
                crash_at = crash_times.get(pid)
                hi = end if crash_at is None else min(end, crash_at)
                first = start + ((pid - start) % n)
                if first >= hi:
                    continue
                last = hi - 1 - ((hi - 1 - pid) % n)
                live += (last - first) // n + 1
                if last > latest:
                    latest = last
            self.metrics.idle_ticks_skipped += live
            if latest > self.last_live_tick:
                self.last_live_tick = latest
            return
        crash_times = self.failure_pattern.crash_times
        if not crash_times or min(crash_times.values()) >= end:
            # Uniform span: every tick is live and idle, so recorders can
            # append the whole stretch in bulk (columnar stores extend their
            # arrays at C speed instead of per-tick record dispatch). The
            # clock's marks move after the observers, which query the
            # detector: a raising query moves nothing, as in the C loop.
            start_index = self._step_index
            for observer in self._idle_step_observers:
                observer.on_idle_span(self, start_index, start, end)
            self.last_live_tick = end - 1
            self._step_index = start_index + end - start
            return
        n = self.n
        crashed = self.failure_pattern.crashed
        for t in range(start, end):
            pid = t % n
            if not crashed(pid, t):
                self._record_idle_step(t, pid)

    def _advance_event_rr(self, t_end: Time) -> None:
        """Execute the next interesting tick before ``t_end``, or jump to it."""
        # Dense-run fast path: when the current tick is already interesting
        # the next-event scan below would return `now` — skip it (O(1)).
        now = self.time
        pid = now % self.n
        due = (
            self._local_event[pid] <= now
            or self.network._next_at[pid] <= now
        )
        if due and not self.failure_pattern.crashed(pid, now):
            self._step()
            return
        target = self._next_event_query(now, align_rr=True)
        if target is None or target >= t_end:
            self._skip_span_rr(self.time, t_end)
            self.time = t_end
            return
        self._skip_span_rr(self.time, target)
        self.time = target
        self._step()

    def _advance_event_random(self, t_end: Time) -> None:
        """Advance to the next interesting tick under random scheduling.

        When an observer needs every idle-step record the ticks must be
        visited one by one anyway; otherwise the blockwise skip jumps over
        idle spans without the per-tick check (byte-identical outcomes —
        pinned by the differential tests).
        """
        if self._materialize_idle:
            self._advance_event_random_scan(t_end)
            return
        # Dense-run fast path, mirroring the round-robin one.
        now = self.time
        pid = self._scheduled_pid(now)
        if not self.failure_pattern.crashed(pid, now) and self._event_time(pid) <= now:
            self._step()
            return
        self._advance_event_random_block(t_end)

    def _advance_event_random_scan(self, t_end: Time) -> None:
        """Per-tick walk for observers that need every idle-step record."""
        t = self.time
        while t < t_end:
            pid = self._scheduled_pid(t)
            if self._tick_interesting(pid, t):
                self.time = t
                self._step()
                return
            if not self.failure_pattern.crashed(pid, t):
                self._record_idle_step(t, pid)
            t += 1
        self.time = t_end

    def _advance_event_random_block(self, t_end: Time) -> None:
        """Blockwise skip: jump idle spans instead of checking every tick.

        Any tick strictly before the earliest pending event (over processes
        that can still act) is idle no matter which permutation the scheduler
        draws, so the span up to that event is accounted arithmetically by
        :meth:`_skip_span_random`. Only the block containing the event is
        then walked tick-by-tick — and it may come up empty (the scheduled
        slot of the process owning the event can fall before the event), in
        which case the next event is recomputed past the block.
        """
        n = self.n
        crash_times = self.failure_pattern.crash_times
        local = self._local_event
        next_at = self.network._next_at  # O(1) per-receiver delivery index
        clock = self._clock
        t = self.time
        while t < t_end:
            target = self._next_event_query(t, align_rr=False)
            if target is None or target >= t_end:
                self._skip_span_random(t, t_end)
                self.time = t_end
                return
            if target > t:
                self._skip_span_random(t, target)
                t = target
            block_start = t - t % n
            hi = min(block_start + n, t_end)
            perm = self._permutation_for_block(t // n)
            while t < hi:
                pid = perm[t - block_start]
                crash_at = crash_times.get(pid)
                if crash_at is None or t < crash_at:
                    if local[pid] <= t or next_at[pid] <= t:
                        self.time = t
                        self._step()
                        return
                    self.metrics.idle_ticks_skipped += 1
                    if t > clock[1]:  # last_live_tick
                        clock[1] = t
                t += 1
        self.time = t_end

    def _skip_span_random(self, start: Time, end: Time) -> None:
        """Fast-forward over ``[start, end)`` (random scheduling, all idle).

        Counts live idle ticks and finds the last live tick without visiting
        each tick: a process occupies exactly one slot per block, so full
        blocks contribute arithmetically and only blocks straddling a span
        edge or a crash boundary need their permutation derived. The C loop
        counts its spans with a port of this and the two helpers below
        (``loop_count_idle``); these stay the generic engine's path and the
        port's oracle.
        """
        if start >= end:
            return
        crash_times = self.failure_pattern.crash_times
        if not crash_times or min(crash_times.values()) >= end:
            # Nobody has crashed before the span ends: every tick is live
            # whatever the permutations are, so none is derived.
            live = end - start
            last = end - 1
        else:
            live = end - start - self._crashed_ticks_random(start, end)
            last = self._last_live_tick_random(start, end) if live else -1
        self.metrics.idle_ticks_skipped += live
        if last > self.last_live_tick:
            self.last_live_tick = last

    def _crashed_ticks_random(self, start: Time, end: Time) -> int:
        """Ticks in ``[start, end)`` owned by an already-crashed process."""
        n = self.n
        crash_times = self.failure_pattern.crash_times

        def crashed_in_segment(block: int, lo: Time, hi: Time) -> int:
            perm = self._permutation_for_block(block)
            base = block * n
            count = 0
            for t in range(lo, hi):
                crash_at = crash_times.get(perm[t - base])
                if crash_at is not None and t >= crash_at:
                    count += 1
            return count

        first_block = start // n
        last_block = (end - 1) // n
        if first_block == last_block:
            return crashed_in_segment(first_block, start, end)
        crashed = 0
        full_lo = first_block
        if start % n:
            crashed += crashed_in_segment(first_block, start, (first_block + 1) * n)
            full_lo = first_block + 1
        full_hi = last_block
        if end % n:
            crashed += crashed_in_segment(last_block, last_block * n, end)
        else:
            full_hi = last_block + 1
        for pid, crash_at in crash_times.items():
            # Blocks whose every slot is at or past the crash time contribute
            # one crashed tick each regardless of permutation; the single
            # block containing the boundary needs its permutation to place
            # the process's slot relative to the crash.
            dead_from = -(-crash_at // n)
            lo = max(full_lo, dead_from)
            if lo < full_hi:
                crashed += full_hi - lo
            boundary = crash_at // n
            if boundary < dead_from and full_lo <= boundary < full_hi:
                perm = self._permutation_for_block(boundary)
                if boundary * n + perm.index(pid) >= crash_at:
                    crashed += 1
        return crashed

    def _last_live_tick_random(self, start: Time, end: Time) -> Time:
        """The last live tick in ``[start, end)``, or -1 when all are crashed.

        When some process never crashes every block holds a live slot, so the
        walk ends within one block; when every process crashes, ticks at or
        past the latest crash are all dead and the walk is clamped below it.
        """
        n = self.n
        crash_times = self.failure_pattern.crash_times
        t = end - 1
        if len(crash_times) == n:
            t = min(t, max(crash_times.values()) - 1)
        while t >= start:
            block = t // n
            base = block * n
            perm = self._permutation_for_block(block)
            lo = base if base > start else start
            while t >= lo:
                crash_at = crash_times.get(perm[t - base])
                if crash_at is None or t < crash_at:
                    return t
                t -= 1
        return -1

    def _finish(self, *, per_tick: bool = False) -> None:
        """Close a run call: note which loop it ran on, notify observers.

        ``per_tick`` marks the run calls that re-evaluate a predicate at
        every tick and therefore always step generically, whatever
        :attr:`fused_path` says :meth:`run_until` would take.
        """
        metrics = self.metrics
        if per_tick:
            metrics.fused_path, metrics.fused_reason = None, "per-tick predicate"
        else:
            metrics.fused_path = self.fused_path
            metrics.fused_reason = self._fused_reason
        for observer in self._finish_observers:
            observer.on_finish(self)

    # -- run loops ----------------------------------------------------------------

    @contextmanager
    def _terminal(self) -> Iterator[None]:
        """One run call: refused once a run call has failed, and failing
        the simulation with whatever escapes it (module docstring)."""
        if self.failed is not None:
            raise SimulationFailed(
                f"a run call raised {self.failed!r} at t={self.time}; a raise "
                f"ends the run, so build a fresh simulation"
            ) from self.failed
        try:
            yield
        except BaseException as exc:
            self.failed = exc
            if isinstance(self.run.steps, StepStore):
                self.run.steps.square()
            raise

    def run_until(self, t_end: Time) -> RunRecord:
        """Run until the clock reaches ``t_end`` ticks."""
        validate_time(t_end)
        with self._terminal():
            if self._fused_run is not None:
                # Event engine on a packed network: one fused loop to
                # t_end (see repro.sim.kernel.fused_runner; byte-identical
                # by the differential tests).
                self._fused_run(self, t_end)
            elif self.engine == "naive":
                while self.time < t_end:
                    self._step()
            elif self.scheduling == "round_robin":
                while self.time < t_end:
                    self._advance_event_rr(t_end)
            else:
                while self.time < t_end:
                    self._advance_event_random(t_end)
            self._finish()
        return self.run

    def run_steps(self, ticks: int) -> RunRecord:
        """Run for ``ticks`` additional clock ticks."""
        return self.run_until(self.time + ticks)

    def run_until_quiescent(
        self, *, grace: int = 0, max_time: Time = 1_000_000
    ) -> RunRecord:
        """Run until no message is deliverable to live processes (plus grace ticks).

        Useful for protocols without periodic chatter. ``grace`` extra full
        rounds are executed after the network drains, letting timers fire.
        The per-tick check reads the delivery cursors of the processes alive
        at the current time: each receiver's heap is ordered by delivery
        time, so a cursor at or past ``NEVER`` means nothing deliverable is
        queued for it (mail across a permanent partition never counts, and
        neither does mail to a crashed receiver).
        """
        with self._terminal():
            while self.time < max_time:
                head = self.network.earliest_pending(self.alive())
                if head is None or head >= NEVER:
                    break
                self._step()
            if grace:
                self.run_steps(grace * self.n)
            self._finish(per_tick=True)
        return self.run

    # -- convenience ----------------------------------------------------------------

    @property
    def correct(self) -> frozenset[ProcessId]:
        """Correct processes of the configured failure pattern."""
        return self.failure_pattern.correct

    def alive(self) -> frozenset[ProcessId]:
        """Processes alive at the current time."""
        return self.failure_pattern.alive_at(self.time)
