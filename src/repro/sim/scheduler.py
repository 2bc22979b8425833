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
permutation is drawn from an RNG keyed on ``(seed, b)`` (via
:func:`~repro.sim.types.stable_hash`), not from a shared sequential stream,
so any block's schedule can be derived without visiting the blocks before
it — the property the blockwise fast-forward below relies on.

Engines
=======

Most ticks of a long run are *idle*: the scheduled process has no deliverable
message, no pending input, no due timeout, and has already started — so no
handler runs and the step is the empty ``(p, lambda, d, -)`` step. Two engines
drive the clock:

- ``engine="naive"`` — the seed behaviour: every tick pays full step cost.
- ``engine="event"`` (default) — finds the earliest *interesting* tick (the
  minimum over processes of: next deliverable envelope, next pending input,
  next due local timeout, the pending ``on_start``; gated by the process's
  crash boundary) and fast-forwards the clock over idle stretches. The
  minimum is answered by two incremental indexes — the network's delivery
  horizon and the scheduler's local event index, each a lazy min-heap over
  per-process O(1) cursors — so a query costs O(log n) per jump rather
  than an O(n) rescan of heaps and timeout tables.
  Under round-robin scheduling the jump is O(1) per skipped stretch. Under
  random scheduling the skip is *blockwise*: every tick strictly before the
  earliest pending event is idle regardless of which permutation the
  scheduler draws, so whole idle spans are accounted arithmetically and only
  the blocks straddling a span edge at or past a crash time, or a crash
  boundary, have their permutation derived (each process holds exactly one
  slot per block, so a full block's live-tick count needs no permutation at
  all, and a span wholly before the first crash needs none either).
  Permutations are keyed by block index, which is what makes deriving them
  out of order — and skipping them entirely — sound. At reduced fidelity on
  the ``compiled-loop`` kernel the same loop runs in C
  (:func:`repro.sim.kernel.fused_runner`); the methods here are the single
  pure-Python implementation, its fallback and its oracle.

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
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Protocol, Sequence

from repro.sim.context import BROADCAST_ALL, Context
from repro.sim.envs import EnvModel
from repro.sim.errors import ConfigurationError
from repro.sim.failures import FailurePattern
from repro.sim.kernel import (
    DEFAULT_KERNEL,
    KERNELS,
    SCAN_EVENT_CUTOVER,
    fused_path_name,
    fused_runner,
    make_network,
)
from repro.sim.network import (
    DEFAULT_COMPACT_FACTOR,
    DelayModel,
    FixedDelay,
    Network,
)
from repro.sim.observers import RunMetrics, SimObserver, make_recorder
from repro.sim.process import Process
from repro.sim.runs import ReceivedMessage, RunRecord, StepRecord
from repro.sim.types import (
    NEVER,
    ProcessId,
    Time,
    stable_hash,
    validate_process_id,
    validate_time,
)


class DetectorHistory(Protocol):
    """Anything that can answer ``H(p, t)`` (see ``repro.detectors.base``)."""

    def query(self, pid: ProcessId, t: Time) -> Any:
        ...


def _overrides(observer: SimObserver, hook: str) -> bool:
    """True iff ``observer``'s class overrides the named base-class hook."""
    return getattr(type(observer), hook) is not getattr(SimObserver, hook)


class Simulation:
    """Drives a set of process automata to produce a run record."""

    def __init__(
        self,
        processes: Sequence[Process],
        *,
        failure_pattern: FailurePattern | None = None,
        detector: DetectorHistory | None = None,
        network: Network | None = None,
        delay_model: DelayModel | None = None,
        environment: EnvModel | None = None,
        seed: int = 0,
        timeout_interval: int | Sequence[int] = 8,
        scheduling: str = "round_robin",
        message_batch: int = 1,
        engine: str = "event",
        kernel: str = DEFAULT_KERNEL,
        compact_factor: int = DEFAULT_COMPACT_FACTOR,
        record: str = "full",
        observers: Sequence[SimObserver] = (),
    ) -> None:
        self.n = len(processes)
        if self.n < 1:
            raise ConfigurationError("need at least one process")
        self.processes = list(processes)
        for pid, process in enumerate(self.processes):
            process.attach(pid, self.n)
        if environment is not None:
            # A first-class environment bundles link behaviour with an
            # optional churn schedule: its delay model becomes the network's,
            # and — unless the caller pins an explicit pattern — its churn is
            # rendered over (n, seed) into the run's failure pattern.
            if not isinstance(environment, EnvModel):
                raise ConfigurationError(
                    f"environment must be an EnvModel "
                    f"(see repro.sim.envs.make_env), got {environment!r}"
                )
            if network is not None or delay_model is not None:
                raise ConfigurationError(
                    "pass an environment or a network/delay model, not both"
                )
            delay_model = environment.delay
            if failure_pattern is None and environment.churn is not None:
                failure_pattern = environment.pattern(self.n, seed=seed)
        self.environment = environment
        self.failure_pattern = failure_pattern or FailurePattern.no_failures(self.n)
        if self.failure_pattern.n != self.n:
            raise ConfigurationError(
                f"failure pattern is over n={self.failure_pattern.n} processes, "
                f"simulation has n={self.n}"
            )
        if network is not None and delay_model is not None:
            raise ConfigurationError("pass either a network or a delay model, not both")
        if kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown kernel {kernel!r}; expected one of {KERNELS}"
            )
        if compact_factor < 1:
            raise ConfigurationError(
                f"compact_factor must be >= 1, got {compact_factor}"
            )
        #: data-plane selection (see repro.sim.kernel). An explicitly passed
        #: network wins over the flag: the kernel then follows the network's
        #: actual type.
        self.kernel = kernel
        self.compact_factor = compact_factor
        if network is None:
            network = make_network(
                self.n,
                delay_model or FixedDelay(1),
                kernel=kernel,
                compact_factor=compact_factor,
            )
        self.network = network
        if self.network.n != self.n:
            raise ConfigurationError("network size does not match process count")
        self.detector = detector
        self.seed = seed
        #: kept for compatibility; scheduling no longer consumes it (block
        #: permutations are keyed on ``(seed, block)`` instead of drawn from
        #: a shared stream), so its state is untouched by a run.
        self.rng = random.Random(seed)
        if scheduling not in ("round_robin", "random"):
            raise ConfigurationError(f"unknown scheduling policy {scheduling!r}")
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
        self._next_timeout: list[Time] = list(intervals)
        if message_batch < 1:
            raise ConfigurationError("message_batch must be >= 1")
        #: maximum receives per step. The paper's step consumes exactly one
        #: message; a batch > 1 coarsens several consecutive steps of the same
        #: process into one tick, which is necessary for gossip-heavy stacks
        #: whose inflow otherwise exceeds the one-message-per-tick drain rate.
        self.message_batch = message_batch
        #: pooled per-step context. Safe to reuse: handlers never retain the
        #: context past their step (the automaton contract), and every step
        #: drains all three effect buffers, leaving fresh empty lists behind.
        self._ctx = Context(pid=0, n=self.n, time=0)

        self.time: Time = 0
        #: last tick consumed by a live (non-crashed) process, -1 before any.
        #: Tracked by both engines so recorders can close reduced-fidelity
        #: run records on the same end_time full fidelity produces.
        self.last_live_tick: Time = -1
        self._step_index = 0
        self._started: set[ProcessId] = set()
        self._inputs: list[list[tuple[Time, int, Any]]] = [[] for _ in range(self.n)]
        self._input_seq = itertools.count()
        self._permutation: list[ProcessId] = list(range(self.n))
        #: block index the cached permutation was derived for (-1 = none yet).
        self._perm_block = -1
        #: the one generator block permutations are drawn from, reseeded per
        #: block (its state between blocks means nothing); round-robin runs
        #: neither build nor pickle one.
        self._perm_rng = random.Random(0) if scheduling == "random" else None
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
            if not isinstance(observer, SimObserver):
                raise ConfigurationError(
                    f"observers must be SimObserver instances, got {observer!r}"
                )
        #: crash boundaries not yet folded into the network's live-pending
        #: counter, in time order (consumed by :meth:`_sync_crash_marks`).
        self._crash_boundaries = sorted(
            (t, pid) for pid, t in self.failure_pattern.crash_times.items()
        )
        self._crash_cursor = 0

        #: incremental *local* next-event index: per process, the earliest
        #: time with scheduler-side work pending — the next due timeout or
        #: pending input, or 0 while the process has not run ``on_start``
        #: (its first step is always interesting). Maintained by
        #: :meth:`_refresh_local` after every executed step and lowered by
        #: :meth:`add_input`; paired with a lazy min-heap mirroring the
        #: network's delivery horizon so next-event queries cost O(log n)
        #: instead of an O(n) rescan of timeouts/inputs/queues.
        self._local_event: list[Time] = [0] * self.n
        self._local_horizon: list[tuple[Time, ProcessId]] = [
            (0, pid) for pid in range(self.n)
        ]
        #: see Network._horizon_cap: bound the stale-entry build-up on runs
        #: that push (every executed step) without ever querying. Shares the
        #: network's tunable compaction factor.
        self._local_cap = max(64, compact_factor * self.n)
        #: scan-vs-heap cutover for the fused loop's idle next-event query;
        #: per-sim so tests and the sweep benchmark can force either path.
        self._scan_cutover = SCAN_EVENT_CUTOVER
        self._rebuild_dispatch()

    # -- observer dispatch -----------------------------------------------------

    def _rebuild_dispatch(self) -> None:
        """Derive every observer dispatch table from ``self._observers``.

        Called at construction and again by :meth:`attach_observer` /
        :meth:`detach_observer`: the fused-runner selection (including the
        ``compiled-loop`` C rung) depends on which hooks are observed, so
        capability changes mid-lifetime re-resolve the whole ladder — a
        non-raw observer attaching downgrades the C loop to the generic
        engine, detaching it restores the fast path.
        """
        self._step_observers = [o for o in self._observers if _overrides(o, "on_step")]
        #: raw executed-step dispatch: taken only when every step observer
        #: overrides ``on_step_raw`` (the built-in recorders do), so the hot
        #: loop never materializes StepRecord/ReceivedMessage objects that
        #: nothing retains. A single observer without the raw hook reverts
        #: all dispatch to materialized records.
        self._raw_step_observers = (
            self._step_observers
            if self._step_observers
            and all(_overrides(o, "on_step_raw") for o in self._step_observers)
            else None
        )
        #: observers that must see idle ticks when materialization is forced:
        #: anything overriding the generic ``on_step`` hook, plus recorders
        #: overriding the allocation-free ``on_idle_step`` fast path.
        self._idle_step_observers = [
            o
            for o in self._observers
            if _overrides(o, "on_step")
            or _overrides(o, "on_idle_step")
            or _overrides(o, "on_idle_span")
        ]
        self._send_observers = [o for o in self._observers if _overrides(o, "on_send")]
        self._deliver_observers = [
            o for o in self._observers if _overrides(o, "on_deliver")
        ]
        self._log_observers = [o for o in self._observers if _overrides(o, "on_log")]
        self._finish_observers = [
            o for o in self._observers if _overrides(o, "on_finish")
        ]
        self._materialize_idle = any(o.wants_idle_steps for o in self._observers)
        #: point-to-point/broadcast sends skip Envelope materialization when
        #: the network has packed primitives and nothing observes sends.
        self._packed_sends = not self._send_observers and hasattr(
            self.network, "send_packed"
        )
        #: envelope-free batch pops for the generic loops (random path):
        #: usable only when no deliver observer needs an Envelope view.
        raw_pops = getattr(self.network, "pop_deliverable_batch_raw", None)
        self._raw_pops = raw_pops if not self._deliver_observers else None
        #: fused dense-tick runner (see repro.sim.kernel); None when this
        #: configuration must take the generic engine paths, with the reason
        #: it is not the C tick loop. Resolved last: eligibility reads the
        #: observer dispatch tables above.
        self._fused_run, self._fused_reason = fused_runner(self)

    def attach_observer(self, observer: SimObserver) -> None:
        """Attach ``observer`` mid-lifetime and re-resolve dispatch.

        The engine re-evaluates every capability gate, so attaching an
        observer that needs hooks the current fast path does not expose
        (a non-raw step observer, a deliver observer under the C loop)
        downgrades to the matching slower path before the next tick.
        """
        if not isinstance(observer, SimObserver):
            raise ConfigurationError(
                f"observers must be SimObserver instances, got {observer!r}"
            )
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
        string such as ``"kernel=packed"``, ``"extension not loaded"``
        or ``"send/deliver observer: <Class>"`` (the full list is in
        :func:`repro.sim.kernel.fused_runner`) — or None when it is."""
        return self._fused_reason

    # -- inputs ----------------------------------------------------------------

    def add_input(self, pid: ProcessId, time: Time, value: Any) -> None:
        """Schedule an application input for ``pid`` at (or after) ``time``."""
        validate_process_id(pid, self.n)
        validate_time(time)
        heapq.heappush(self._inputs[pid], (time, next(self._input_seq), value))
        if time < self._local_event[pid]:
            self._local_event[pid] = time
            self._push_local(time, pid)

    # -- stepping ----------------------------------------------------------------

    def _scheduled_pid(self, t: Time) -> ProcessId:
        if self.scheduling == "round_robin":
            return t % self.n
        return self._permutation_for_block(t // self.n)[t % self.n]

    def _permutation_for_block(self, block: int) -> list[ProcessId]:
        """The schedule permutation of block ``block`` (counter-based).

        Keyed on ``(seed, block)`` so any block's permutation is derivable
        without visiting earlier blocks: the naive stepper, the per-tick
        scan, the blockwise fast-forward and the C loop (which derives the
        same bits itself and shares this one-block cache) see identical
        schedules no matter which blocks they actually touch.

        By definition ``random.Random(key).shuffle(list(range(n)))`` with
        ``key = stable_hash("block-permutation", seed, block)``. Derived
        here with neither the construction nor the per-draw method calls:
        one generator reseeded, and ``shuffle``'s Fisher–Yates
        (``j = _randbelow(i + 1)`` for ``i = n-1 .. 1``, each
        ``getrandbits((i + 1).bit_length())`` until below ``i + 1``)
        written out — the same loop ``_ckernel.run_loop`` runs.
        """
        if block != self._perm_block:
            rng = self._perm_rng
            rng.seed(stable_hash("block-permutation", self.seed, block))
            getrandbits = rng.getrandbits
            permutation = list(range(self.n))
            for i in range(self.n - 1, 0, -1):
                bits = (i + 1).bit_length()
                j = getrandbits(bits)
                while j > i:
                    j = getrandbits(bits)
                permutation[i], permutation[j] = permutation[j], permutation[i]
            self._permutation = permutation
            self._perm_block = block
        return self._permutation

    def step(self) -> StepRecord | None:
        """Advance the clock one tick; run the scheduled process if alive.

        Returns the step record, or None when the tick belonged to a crashed
        process (the tick is consumed either way) or when recording took the
        raw columnar path (every step observer handles ``on_step_raw``, so
        no record object is ever materialized).
        """
        t = self.time
        self.time += 1
        pid = self._scheduled_pid(t)
        if self.failure_pattern.crashed(pid, t):
            return None
        self.last_live_tick = t

        process = self.processes[pid]
        fd_value = self.detector.query(pid, t) if self.detector is not None else None
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

        # One batched pop per tick instead of up to message_batch calls;
        # pinned identical to repeated single pops by the differential tests.
        # Packed kernels without deliver observers take the raw tuple path:
        # same pops, same accounting, no Envelope views (this is how the
        # blockwise random schedule rides the packed pool's batch pops).
        first_sender, first_payload, first_send_time = -1, None, -1
        raw_pops = self._raw_pops
        if raw_pops is not None:
            messages = raw_pops(pid, t, self.message_batch)
            received_count = len(messages)
            if messages:
                first = messages[0]
                first_sender = first[2]
                first_payload = first[4]
                first_send_time = first[3]
            for message in messages:
                process.on_message(ctx, message[2], message[4])
        else:
            envelopes = self.network.pop_deliverable_batch(
                pid, t, self.message_batch
            )
            received_count = len(envelopes)
            if envelopes:
                first = envelopes[0]
                first_sender = first.sender
                first_payload = first.payload
                first_send_time = first.send_time
            deliver_observers = self._deliver_observers
            for envelope in envelopes:
                if deliver_observers:
                    for observer in deliver_observers:
                        observer.on_deliver(self, envelope)
                process.on_message(ctx, envelope.sender, envelope.payload)

        timeout_fired = False
        if t >= self._next_timeout[pid]:
            timeout_fired = True
            self._next_timeout[pid] = t + self.timeout_intervals[pid]
            process.on_timeout(ctx)

        outbox = ctx.drain_outbox()
        network = self.network
        send_observers = self._send_observers
        sent = 0
        if self._packed_sends:
            # Packed kernels: queue straight into the pool, no Envelope
            # views (nothing observes sends; same draws, same counters).
            for receiver, payload in outbox:
                if receiver >= 0:
                    network.send_packed(pid, receiver, payload, t)
                    sent += 1
                else:
                    sent += network.send_all_packed(
                        pid, payload, t, receiver == BROADCAST_ALL
                    )
        else:
            for receiver, payload in outbox:
                if receiver >= 0:
                    envelope = network.send(pid, receiver, payload, t)
                    sent += 1
                    if send_observers:
                        for observer in send_observers:
                            observer.on_send(self, envelope)
                else:
                    # Broadcast sentinel (see repro.sim.context): one batched
                    # delay-model pass over all receivers.
                    envelopes = network.send_all(
                        pid, payload, t, include_self=receiver == BROADCAST_ALL
                    )
                    sent += len(envelopes)
                    if send_observers:
                        for envelope in envelopes:
                            for observer in send_observers:
                                observer.on_send(self, envelope)
        outputs = ctx.drain_outputs()
        if self._log_observers:
            for event in ctx.drain_log():
                for observer in self._log_observers:
                    observer.on_log(self, t, pid, event)
        else:
            ctx.drain_log()

        self._refresh_local(pid)
        index = self._step_index
        self._step_index += 1
        inputs_t = tuple(inputs)
        outputs_t = tuple(outputs)
        raw_observers = self._raw_step_observers
        if raw_observers is not None:
            for observer in raw_observers:
                observer.on_step_raw(
                    self, index, t, pid, first_sender, first_payload,
                    first_send_time, fd_value, inputs_t, outputs_t,
                    timeout_fired, sent, received_count,
                )
            return None
        received = (
            None
            if received_count == 0
            else ReceivedMessage(
                sender=first_sender,
                payload=first_payload,
                send_time=first_send_time,
            )
        )
        record = StepRecord(
            index=index,
            time=t,
            pid=pid,
            message=received,
            fd_value=fd_value,
            inputs=inputs_t,
            outputs=outputs_t,
            timeout_fired=timeout_fired,
            sent=sent,
            received_count=received_count,
        )
        for observer in self._step_observers:
            observer.on_step(self, record)
        return record

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
        if event_at != self._local_event[pid]:
            self._local_event[pid] = event_at
            self._push_local(event_at, pid)

    def _push_local(self, event_at: Time, pid: ProcessId) -> None:
        """Push a local-horizon entry, compacting the heap when it outgrows
        its cap (stale entries accumulate on runs that never query)."""
        horizon = self._local_horizon
        if len(horizon) > self._local_cap:
            local = self._local_event
            horizon[:] = [(local[p], p) for p in range(self.n)]
            heapq.heapify(horizon)
        heapq.heappush(horizon, (event_at, pid))

    # -- the event engine ------------------------------------------------------

    def _event_time(self, pid: ProcessId) -> Time:
        """Earliest time with work pending for ``pid`` (unclamped); O(1).

        The minimum of the local index (timeouts / inputs / pending
        ``on_start``) and the network's next-delivery index.
        """
        event_at = self._local_event[pid]
        deliver_at = self.network.next_delivery_time(pid)
        if deliver_at is not None and deliver_at < event_at:
            return deliver_at
        return event_at

    def _tick_interesting(self, pid: ProcessId, t: Time) -> bool:
        """True iff the step at tick ``t`` (scheduled: ``pid``) does any work."""
        if self.failure_pattern.crashed(pid, t):
            return False
        return self._event_time(pid) <= t

    def _next_event_query(self, now: Time, align_rr: bool) -> Time | None:
        """Earliest actionable tick over both lazy horizon heaps, or None.

        Queries the scheduler-local event heap and the network's delivery
        horizon instead of scanning every process: entries pop in time
        order until none can beat the best candidate found. Under
        round-robin (``align_rr``) a candidate is the event time aligned to
        its process's next scheduled slot — alignment adds < n, so only
        entries within one round of the minimum are examined (O(log n)
        amortized per jump); under random scheduling any permutation may
        schedule the owner at any slot, so the candidate is the event time
        itself (clamped to ``now``).

        Stale entries — their time no longer matches the owning index —
        are discarded for good. Valid entries are always reinserted, even
        when crash-gated (the process can never act on the event): the
        network's horizon heap remains the authoritative "earliest over
        all queues" index for :meth:`~repro.sim.network.Network.horizon_peek`,
        and gated entries simply never become the answer.
        """
        n = self.n
        crash_times = self.failure_pattern.crash_times
        network = self.network
        best: Time | None = None
        for horizon, index in (
            (self._local_horizon, self._local_event),
            (network._horizon, network._next_at),
        ):
            stash = None
            while horizon:
                entry = horizon[0]
                event_at, pid = entry
                if index[pid] != event_at:
                    heapq.heappop(horizon)  # stale
                    continue
                eff = event_at if event_at > now else now
                if best is not None and eff >= best:
                    break
                heapq.heappop(horizon)
                if stash is None:
                    stash = [entry]
                else:
                    stash.append(entry)
                tick = eff + ((pid - eff) % n) if align_rr else eff
                crash_at = crash_times.get(pid)
                if crash_at is not None and tick >= crash_at:
                    continue  # pid can never act on this event
                if best is None or tick < best:
                    best = tick
            if stash is not None:
                for entry in stash:
                    heapq.heappush(horizon, entry)
        return best

    def _record_idle_step(self, t: Time, pid: ProcessId) -> None:
        """Record the step a naive stepper would produce for an idle tick.

        Dispatched through ``on_idle_step`` so columnar recorders append
        straight into their store; only observers that merely override
        ``on_step`` get a materialized :class:`StepRecord` (built by the
        base-class ``on_idle_step``).
        """
        self.last_live_tick = t
        fd_value = self.detector.query(pid, t) if self.detector is not None else None
        index = self._step_index
        self._step_index += 1
        for observer in self._idle_step_observers:
            observer.on_idle_step(self, index, t, pid, fd_value)

    def _skip_span_rr(self, start: Time, end: Time) -> None:
        """Fast-forward the clock over ``[start, end)`` (round-robin, all idle)."""
        if start >= end:
            return
        if not self._materialize_idle:
            # Count live idle ticks and find the last one without touching
            # each tick: per process, its slots in the span are an arithmetic
            # progression clipped by its crash boundary.
            n = self.n
            crash_times = self.failure_pattern.crash_times
            live = 0
            last_live = -1
            for pid in range(n):
                crash_at = crash_times.get(pid)
                hi = end if crash_at is None else min(end, crash_at)
                first = start + ((pid - start) % n)
                if first >= hi:
                    continue
                last = hi - 1 - ((hi - 1 - pid) % n)
                live += (last - first) // n + 1
                if last > last_live:
                    last_live = last
            self.metrics.idle_ticks_skipped += live
            if last_live > self.last_live_tick:
                self.last_live_tick = last_live
            return
        crash_times = self.failure_pattern.crash_times
        if not crash_times or min(crash_times.values()) >= end:
            # Uniform span: every tick is live and idle, so recorders can
            # append the whole stretch in bulk (columnar stores extend their
            # arrays at C speed instead of per-tick record dispatch).
            self.last_live_tick = end - 1
            start_index = self._step_index
            self._step_index += end - start
            for observer in self._idle_step_observers:
                observer.on_idle_span(self, start_index, start, end)
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
        # the horizon query below would return `now` — skip it (O(1)).
        now = self.time
        pid = now % self.n
        if self._local_event[pid] <= now:
            due = True
        else:
            deliver_at = self.network._next_at[pid]
            due = deliver_at is not None and deliver_at <= now
        if due and not self.failure_pattern.crashed(pid, now):
            self.step()
            return
        target = self._next_event_query(now, align_rr=True)
        if target is None or target >= t_end:
            self._skip_span_rr(self.time, t_end)
            self.time = t_end
            return
        self._skip_span_rr(self.time, target)
        self.time = target
        self.step()

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
            self.step()
            return
        self._advance_event_random_block(t_end)

    def _advance_event_random_scan(self, t_end: Time) -> None:
        """Per-tick walk for observers that need every idle-step record."""
        t = self.time
        while t < t_end:
            pid = self._scheduled_pid(t)
            if self._tick_interesting(pid, t):
                self.time = t
                self.step()
                return
            if not self.failure_pattern.crashed(pid, t):
                self._record_idle_step(t, pid)
            t += 1
        self.time = t_end

    def _advance_event_random_block(self, t_end: Time) -> None:
        """Blockwise skip: jump idle spans instead of checking every tick.

        Any tick strictly before the earliest pending event (over processes
        that can still act) is idle no matter which permutation the scheduler
        draws, so the span up to that horizon is accounted arithmetically by
        :meth:`_skip_span_random`. Only the block containing the horizon is
        then walked tick-by-tick — and it may come up empty (the scheduled
        slot of the process owning the event can fall before the event), in
        which case the horizon is recomputed past the block.
        """
        n = self.n
        crash_times = self.failure_pattern.crash_times
        local = self._local_event
        next_at = self.network._next_at  # O(1) per-receiver delivery index
        t = self.time
        while t < t_end:
            horizon = self._next_event_query(t, align_rr=False)
            if horizon is None or horizon >= t_end:
                self._skip_span_random(t, t_end)
                self.time = t_end
                return
            if horizon > t:
                self._skip_span_random(t, horizon)
                t = horizon
            block_start = t - t % n
            hi = min(block_start + n, t_end)
            perm = self._permutation_for_block(t // n)
            while t < hi:
                pid = perm[t - block_start]
                crash_at = crash_times.get(pid)
                if crash_at is None or t < crash_at:
                    event_at = local[pid]
                    deliver_at = next_at[pid]
                    if deliver_at is not None and deliver_at < event_at:
                        event_at = deliver_at
                    if event_at <= t:
                        self.time = t
                        self.step()
                        return
                    self.metrics.idle_ticks_skipped += 1
                    if t > self.last_live_tick:
                        self.last_live_tick = t
                t += 1
        self.time = t_end

    def _skip_span_random(self, start: Time, end: Time) -> None:
        """Fast-forward over ``[start, end)`` (random scheduling, all idle).

        Counts live idle ticks and finds the last live tick without visiting
        each tick: a process occupies exactly one slot per block, so full
        blocks contribute arithmetically and only blocks straddling a span
        edge or a crash boundary need their permutation derived.
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

    def run_until(self, t_end: Time) -> RunRecord:
        """Run until the clock reaches ``t_end`` ticks."""
        validate_time(t_end)
        if self._fused_run is not None:
            # Event engine on a packed/compiled kernel: one fused loop to
            # t_end (see repro.sim.kernel.fused_runner; byte-identical by
            # the differential tests).
            self._fused_run(self, t_end)
        elif self.engine == "naive":
            while self.time < t_end:
                self.step()
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

    def run_while(
        self, condition: Callable[["Simulation"], bool], *, max_time: Time = 1_000_000
    ) -> RunRecord:
        """Run while ``condition(self)`` holds, up to ``max_time`` ticks.

        The condition is re-evaluated at every tick, so this loop always steps
        naively — fast-forwarding would change when the predicate observes the
        simulation.
        """
        while self.time < max_time and condition(self):
            self.step()
        self._finish(per_tick=True)
        return self.run

    def run_until_quiescent(
        self, *, grace: int = 0, max_time: Time = 1_000_000
    ) -> RunRecord:
        """Run until no message is deliverable to live processes (plus grace ticks).

        Useful for protocols without periodic chatter. ``grace`` extra full
        rounds are executed after the network drains, letting timers fire.
        The per-tick check reads the network's O(1) live-pending counter
        (crash boundaries are folded in as the clock crosses them) instead of
        rescanning the per-receiver queues.
        """
        while self.time < max_time:
            self._sync_crash_marks()
            if self.network.live_pending == 0:
                break
            self.step()
        if grace:
            self.run_steps(grace * self.n)
        self._finish(per_tick=True)
        return self.run

    def _sync_crash_marks(self) -> None:
        """Fold crash boundaries up to the current time into the network."""
        boundaries = self._crash_boundaries
        while (
            self._crash_cursor < len(boundaries)
            and boundaries[self._crash_cursor][0] <= self.time
        ):
            self.network.mark_crashed(boundaries[self._crash_cursor][1])
            self._crash_cursor += 1

    # -- convenience ----------------------------------------------------------------

    @property
    def correct(self) -> frozenset[ProcessId]:
        """Correct processes of the configured failure pattern."""
        return self.failure_pattern.correct

    def alive(self) -> frozenset[ProcessId]:
        """Processes alive at the current time."""
        return self.failure_pattern.alive_at(self.time)
