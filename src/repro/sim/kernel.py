"""Packed struct-of-arrays sim kernel: the dense-tick hot path.

The legacy data plane (:mod:`repro.sim.network`) keeps one
:class:`~repro.sim.network.Envelope` dataclass per in-transit message in
per-receiver object heaps. Profiles of dense full-fidelity runs show that
the remaining cost after the columnar recording work (PR 4) is exactly that
object churn plus per-call indirection in the scheduler's inner loop. This
module removes both:

- :class:`PackedNetwork` — a drop-in :class:`~repro.sim.network.Network`
  subclass that stores in-transit messages as parallel ``array`` columns
  (``deliver_at``, ``seq``, ``sender``, ``send_time``) plus a payload-ref
  list, indexed by *slot* and recycled through a free list. No ``Envelope``
  is ever allocated: the scheduler's three calls (``send_packed``,
  ``send_all_packed``, ``pop_deliverable_batch_raw``) move plain fields.
  The receiver column is implicit: a slot's receiver is the shard its key
  lives in.
- **Sharded receiver heaps** — instead of one object heap per receiver
  ordered by rich comparisons on ``Envelope``, each receiver has a heap of
  packed integer keys ``(deliver_at << 64) | (seq << 24) | slot``. Integer
  comparison preserves the exact ``(deliver_at, seq)`` delivery order
  (``seq`` is globally unique so the slot bits never decide), and push/pop
  never call ``__lt__`` on objects. The network-level merge layer — the
  per-receiver ``_next_at`` cursors and counters, ``array('q')`` state —
  is inherited unchanged from :class:`Network`, so the event engine's
  next-event scan works on every kernel.
- :func:`run_fused_rr` — the scheduler's dense-tick loop
  (``Simulation.step`` + batched pops + timeout check + recording) fused
  into one function that reads the packed columns directly and appends
  straight into the run's columnar :class:`~repro.sim.runs.StepStore`.
  Selected automatically on ``kernel="packed"`` for ``engine="event"`` +
  round-robin runs, whatever observers are attached (every loop dispatches
  a step through the one ``on_step_raw`` hook); every other configuration
  falls back to the generic engine (still on the packed network, through
  the same three calls).

Kernel selection — ``Simulation(kernel=...)``; the default is
:data:`DEFAULT_KERNEL`, the top rung when the extension loaded and
``packed`` otherwise:

``legacy``
    the PR 4 data plane: object heaps, generic engine loops.
``packed`` (the default without the extension)
    :class:`PackedNetwork` + the pure-Python fused loop: the fallback and
    the differential oracle of the rung above it.
``compiled-loop`` (the default with the extension)
    :class:`CompiledPackedNetwork` — the packed pool and shard heaps in the
    optional C extension ``repro.sim._ckernel`` (built via ``python
    setup.py build_ext --inplace``; see ``pyproject.toml``), behind one C
    send path whose only Python call is the delay model — *plus* the C
    tick loop: ``_ckernel.run_loop`` owns the dense-tick loop itself (due
    checks, shard pops, timeout firing, outbox expansion through the C
    send path, local-cursor refresh, the next-event scan, idle-span counts,
    store appends) and calls back into Python only for process handlers,
    the delay model, the idle spans of a run that materializes idle steps,
    and step/log observers. Engages under the same conditions as the
    Python fused loop, on either schedule; a run it cannot take steps
    through the generic engine on the same C pool, never to an error —
    ``sim.fused_path`` / ``sim.fused_reason`` say which loop runs and why
    (see :func:`fused_runner`). Requesting it without the extension built
    raises :class:`~repro.sim.errors.ConfigurationError`;
    :data:`HAS_COMPILED` / :data:`HAS_COMPILED_LOOP` report availability
    (one fact: a stale extension is refused whole, at import, by
    :mod:`repro.sim._compiled`).

All kernel rungs are pinned byte-identical (run records, counters, RNG
streams) by ``tests/test_kernel.py`` on top of the PR 4 differential oracle
machinery; ``run_fused_rr`` stays the reference implementation and
differential oracle for the C loop.

Handler contract: process automata must not retain the
:class:`~repro.sim.context.Context` past their step — the fused loop reuses
the pooled context, so a retained reference would observe later steps'
state. Only the legacy kernel still builds an ``Envelope`` per message, and
those never leave the network; the packed pools recycle a payload slot
through the free list as soon as it is consumed. A handler (or detector,
delay model, observer) that raises ends the run (:mod:`repro.sim.scheduler`):
the loops order their effects for raise-free steps only, and a raise leaves
whatever half of a step it interrupted, holding no extra references.
"""

from __future__ import annotations

import heapq
from array import array
from typing import TYPE_CHECKING, Any, Callable

from repro.sim._compiled import ckernel as _ckernel
from repro.sim.context import BROADCAST_ALL
from repro.sim.errors import ConfigurationError
from repro.sim.envs import DelayModel
from repro.sim.network import (
    _DELIVERED,
    _SENT,
    Network,
    deliver_time,
)
from repro.sim.observers import FullRecorder, MetricsRecorder
from repro.sim.types import NO_MESSAGE, ProcessId, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.scheduler import Simulation

#: valid values of ``Simulation(kernel=...)``.
KERNELS = ("legacy", "packed", "compiled-loop")

#: shard-key layout: ``(deliver_at << 64) | (seq << 24) | slot``. The low
#: 24 bits address the pool slot (16M simultaneous in-transit messages),
#: the next 40 bits carry the global send sequence, and everything above
#: bit 64 is the delivery time — so plain integer comparison orders keys
#: exactly like ``Envelope``'s ``(deliver_at, seq)`` ordering (``seq`` is
#: globally unique, so the slot bits never break a tie).
_SLOT_BITS = 24
_SLOT_LIMIT = 1 << _SLOT_BITS
_SLOT_MASK = _SLOT_LIMIT - 1
_SEQ_BITS = 40
_SEQ_LIMIT = 1 << _SEQ_BITS
_KEY_SHIFT = _SLOT_BITS + _SEQ_BITS

#: a C extension built from the ``_ckernel.c`` beside it loaded
#: (:mod:`repro.sim._compiled` verifies the compiled-in source digest and
#: refuses a stale build with one warning, which reads here as "not
#: built"). The C pool and the C tick loop ride the same verified build,
#: so both names mean the same thing.
HAS_COMPILED = _ckernel is not None
HAS_COMPILED_LOOP = HAS_COMPILED

#: the rung a run takes when nothing names one: the fastest whose extension
#: loaded. Like ``stable_hash``'s body (:mod:`repro.sim.types`) it is
#: observed once, at import, from what is on disk — never configured. Every
#: ``kernel=`` default in the package reads this name; explicit values and
#: "an explicitly requested compiled rung without the extension raises" are
#: unaffected.
DEFAULT_KERNEL = "compiled-loop" if HAS_COMPILED else "packed"


class PackedNetwork(Network):
    """Struct-of-arrays message pool behind the :class:`Network` API.

    In-transit messages live in parallel columns indexed by slot; each
    receiver's delivery order is a heap of packed integer keys (see module
    docstring). The merge layer — the ``_next_at`` cursors, the
    per-receiver counters and ``_counts``, all ``array('q')`` — is
    inherited from :class:`Network` and maintained identically, so the
    event engine and every public query (:meth:`next_delivery_time`,
    :meth:`in_transit`, the quiescence check) are oblivious to the storage
    change. The scheduler talks to it through :meth:`send_packed`,
    :meth:`send_all_packed` and :meth:`pop_deliverable_batch_raw`; the
    legacy ``Envelope`` methods it inherits fail fast on the poisoned
    ``_queues``.
    """

    def __init__(self, n: int, delay_model: DelayModel | None = None) -> None:
        super().__init__(n, delay_model)
        #: the object heaps are replaced by the pool; poisoned so any code
        #: still reaching for them fails fast instead of desynchronizing.
        self._queues = None  # type: ignore[assignment]
        self._col_deliver = array("q")
        self._col_seq = array("q")
        self._col_sender = array("i")
        self._col_send_time = array("q")
        self._col_payload: list[Any] = []
        #: recycled slots, LIFO (hot slots stay cache-warm).
        self._free: list[int] = []
        #: per-receiver heaps of packed integer keys.
        self._shards: list[list[int]] = [[] for _ in range(n)]

    # -- sends --------------------------------------------------------------

    def send_packed(
        self, sender: ProcessId, receiver: ProcessId, payload: Any, t: Time
    ) -> int:
        """Queue a point-to-point message; returns its send sequence (as
        on every rung). The message takes a freed pool slot when the free
        list has any, else the columns grow."""
        deliver_at = deliver_time(
            t, self.delay_model.delay(sender, receiver, t)
        )
        counts = self._counts
        seq = counts[_SENT]
        if seq >= _SEQ_LIMIT:
            raise OverflowError("packed pool exhausted the 40-bit send sequence")
        free = self._free
        if free:
            slot = free.pop()
            self._col_deliver[slot] = deliver_at
            self._col_seq[slot] = seq
            self._col_sender[slot] = sender
            self._col_send_time[slot] = t
            self._col_payload[slot] = payload
        else:
            slot = len(self._col_payload)
            if slot >= _SLOT_LIMIT:
                raise OverflowError(
                    f"packed pool exceeded {_SLOT_LIMIT} simultaneous "
                    f"in-transit messages"
                )
            self._col_deliver.append(deliver_at)
            self._col_seq.append(seq)
            self._col_sender.append(sender)
            self._col_send_time.append(t)
            self._col_payload.append(payload)
        counts[_SENT] = seq + 1
        heapq.heappush(
            self._shards[receiver],
            (deliver_at << _KEY_SHIFT) | (seq << _SLOT_BITS) | slot,
        )
        self._pending[receiver] += 1
        if deliver_at < self._next_at[receiver]:
            self._next_at[receiver] = deliver_at
        return seq

    def send_all_packed(
        self,
        sender: ProcessId,
        payload: Any,
        t: Time,
        include_self: bool = True,
    ) -> int:
        """Broadcast in one batched pass (same draws and order as the legacy
        :meth:`Network.send_all`); returns the count.

        Every delivery time, the sequence space and the slot space are
        checked before any message queues, so a broadcast is all or
        nothing; the queue loop folds the network-wide counters in once at
        the end.
        """
        receivers = [r for r in range(self.n) if include_self or r != sender]
        times = self._broadcast_deliver_times(sender, t, receivers)
        count = len(receivers)
        counts = self._counts
        seq = counts[_SENT]
        if seq + count > _SEQ_LIMIT:
            raise OverflowError("packed pool exhausted the 40-bit send sequence")
        col_deliver = self._col_deliver
        col_seq = self._col_seq
        col_sender = self._col_sender
        col_send_time = self._col_send_time
        col_payload = self._col_payload
        free = self._free
        if len(col_payload) + count - len(free) > _SLOT_LIMIT:
            raise OverflowError(
                f"packed pool exceeded {_SLOT_LIMIT} simultaneous "
                f"in-transit messages"
            )
        shards = self._shards
        next_at = self._next_at
        pending = self._pending
        heappush = heapq.heappush
        for receiver, deliver_at in zip(receivers, times):
            if free:
                slot = free.pop()
                col_deliver[slot] = deliver_at
                col_seq[slot] = seq
                col_sender[slot] = sender
                col_send_time[slot] = t
                col_payload[slot] = payload
            else:
                slot = len(col_payload)
                col_deliver.append(deliver_at)
                col_seq.append(seq)
                col_sender.append(sender)
                col_send_time.append(t)
                col_payload.append(payload)
            heappush(
                shards[receiver],
                (deliver_at << _KEY_SHIFT) | (seq << _SLOT_BITS) | slot,
            )
            seq += 1
            pending[receiver] += 1
            if deliver_at < next_at[receiver]:
                next_at[receiver] = deliver_at
        counts[_SENT] = seq
        return count

    # -- pops ---------------------------------------------------------------

    def pop_deliverable_batch_raw(
        self, receiver: ProcessId, t: Time, limit: int
    ) -> list[tuple[Time, int, ProcessId, Time, Any]]:
        """Batch-pop due messages as ``(deliver_at, seq, sender, send_time,
        payload)`` tuples: the same pops, accounting and merge-layer updates
        as the legacy :meth:`Network.pop_deliverable_batch_raw`."""
        shard = self._shards[receiver]
        if not shard or shard[0] >> _KEY_SHIFT > t:
            return []
        popped: list[tuple[Time, int, ProcessId, Time, Any]] = []
        heappop = heapq.heappop
        col_seq = self._col_seq
        col_sender = self._col_sender
        col_send_time = self._col_send_time
        col_payload = self._col_payload
        free_append = self._free.append
        while shard and len(popped) < limit:
            key = shard[0]
            deliver_at = key >> _KEY_SHIFT
            if deliver_at > t:
                break
            heappop(shard)
            slot = key & _SLOT_MASK
            popped.append(
                (
                    deliver_at,
                    col_seq[slot],
                    col_sender[slot],
                    col_send_time[slot],
                    col_payload[slot],
                )
            )
            col_payload[slot] = None
            free_append(slot)
        count = len(popped)
        self._counts[_DELIVERED] += count
        self._pending[receiver] -= count
        self._next_at[receiver] = (
            shard[0] >> _KEY_SHIFT if shard else NO_MESSAGE
        )
        return popped

    # -- introspection (tests / benchmarks) ---------------------------------

    @property
    def pool_slots(self) -> int:
        """Total slots ever allocated (high-water mark of in-transit mail)."""
        return len(self._col_payload)

    @property
    def pool_free(self) -> int:
        """Slots currently on the free list."""
        return len(self._free)


class CompiledPackedNetwork(PackedNetwork):
    """The packed pool and shard heaps, hosted by the C extension.

    Storage moves into ``repro.sim._ckernel.Pool`` (slot columns, free
    list, per-receiver shard heaps). The merge layer and counters stay the
    ``array('q')`` state every :class:`Network` keeps; the C send path and
    the C loop export those buffers and update them in place through
    ``int64_t`` pointers, so the scheduler's event engine sees exactly the
    same ``_next_at`` cursors as on every other kernel and no copy exists
    on the C side. The delay model stays an ordinary Python object the C
    code calls. The
    Python columns inherited from :class:`PackedNetwork` stay empty and
    unused. Pickles and deep-copies like the other networks: the pool's
    state is its live slots, free stack and shard heaps as plain lists.
    """

    def __init__(self, n: int, delay_model: DelayModel | None = None) -> None:
        if not HAS_COMPILED:
            raise ConfigurationError(
                "kernel='compiled-loop' requested but repro.sim._ckernel is "
                "not built (or was refused as stale: see the RuntimeWarning "
                "at import); run `python setup.py build_ext --inplace` with "
                "a C compiler available, or use kernel='packed'"
            )
        super().__init__(n, delay_model)
        self._shards = None  # type: ignore[assignment]  # lives in the pool
        self._pool = _ckernel.Pool(n)

    # -- sends --------------------------------------------------------------
    #
    # One implementation, in C: ``_ckernel.send_packed`` /
    # ``_ckernel.send_all_packed`` draw through ``self.delay_model`` (the
    # only Python they call), enforce the same ``delay >= 1``,
    # ``NO_MESSAGE``, profile length and 40-bit sequence checks as
    # :class:`PackedNetwork` with the same exceptions — a broadcast's
    # before any of it queues — queue into
    # the pool and fold the merge layer in the order
    # :meth:`PackedNetwork.send_packed` does. ``run_loop`` expands
    # outboxes through the same code without coming back here.

    def send_packed(
        self, sender: ProcessId, receiver: ProcessId, payload: Any, t: Time
    ) -> int:
        """Queue a point-to-point message; returns its send sequence."""
        return _ckernel.send_packed(self, sender, receiver, payload, t)

    def send_all_packed(
        self,
        sender: ProcessId,
        payload: Any,
        t: Time,
        include_self: bool = True,
    ) -> int:
        return _ckernel.send_all_packed(self, sender, payload, t, include_self)

    # -- pops ---------------------------------------------------------------

    def pop_deliverable_batch_raw(
        self, receiver: ProcessId, t: Time, limit: int
    ) -> list[tuple[Time, int, ProcessId, Time, Any]]:
        items, new_head = self._pool.pop_due_batch(receiver, t, limit)
        if not items:
            return []
        self._counts[_DELIVERED] += len(items)
        self._pending[receiver] -= len(items)
        self._next_at[receiver] = new_head if new_head >= 0 else NO_MESSAGE
        return items

    @property
    def pool_slots(self) -> int:
        return self._pool.slots()

    @property
    def pool_free(self) -> int:
        return self._pool.free()


def make_network(
    n: int,
    delay_model: DelayModel | None = None,
    *,
    kernel: str = DEFAULT_KERNEL,
) -> Network:
    """Build the network backing a kernel selection (see :data:`KERNELS`)."""
    if kernel == "legacy":
        return Network(n, delay_model)
    if kernel == "packed":
        return PackedNetwork(n, delay_model)
    if kernel == "compiled-loop":
        return CompiledPackedNetwork(n, delay_model)
    raise ConfigurationError(
        f"unknown kernel {kernel!r}; expected one of {KERNELS}"
    )


def fused_runner(
    sim: "Simulation",
) -> tuple[Callable[["Simulation", Time], None] | None, str | None]:
    """``(runner, reason)``: the fused dense-tick runner ``run_until``
    hands ``sim`` to — None when it takes the generic engine paths — and
    why that is not the C tick loop (None when it is).

    A fused loop runs only under ``engine="event"``, on a packed network —
    where it is behaviourally identical to the generic event engine.
    Everything else runs the generic loops. Step and log observers never
    decide it: every loop calls the same ``on_step_raw`` per step and the
    same ``on_log`` per event (both cross back into Python from C). On
    ``kernel="compiled-loop"`` (the default when the extension loaded) the
    fused loop is the C loop; on ``kernel="packed"`` it is
    :func:`run_fused_rr`, which therefore only ever sees the Python pool.

    Random scheduling is served by the C loop alone, under the same
    conditions plus one: nothing materializes idle steps
    (``record="full"`` and ``wants_idle_steps`` observers need every idle
    tick visited, which is the per-tick walk). There is no Python fused
    loop for it — one was measured slower than the generic engine — so a
    random-scheduled run that is not on the C loop steps generically
    (``Simulation._advance_event_random``, the single pure-Python
    implementation and the C path's oracle) and the runner is None, never
    :func:`run_fused_rr`.

    The reason is one of a few fixed strings, first match wins:
    ``"engine=naive"``, ``"scheduling=random materializes idle steps"``,
    ``"legacy network"``, ``"extension not loaded"``, ``"kernel=<rung>"``
    (a lower rung was asked for).
    """
    if sim.engine != "event":
        return None, f"engine={sim.engine}"
    random = sim.scheduling == "random"
    if random and sim._materialize_idle:
        return None, "scheduling=random materializes idle steps"
    if not isinstance(sim.network, PackedNetwork):
        return None, "legacy network"
    python_loop = None if random else run_fused_rr
    if not HAS_COMPILED_LOOP:
        return python_loop, "extension not loaded"
    if sim.kernel != "compiled-loop":
        return python_loop, f"kernel={sim.kernel}"
    return run_fused_compiled, None


def fused_path_name(
    runner: Callable[["Simulation", Time], None] | None,
) -> str | None:
    """Human-readable name of a fused runner: ``"c-loop"``, ``"python"``,
    or None (generic engine)."""
    if runner is run_fused_compiled:
        return "c-loop"
    if runner is run_fused_rr:
        return "python"
    return None


def run_fused_compiled(sim: "Simulation", t_end: Time) -> None:
    """Hand the event engine's tick loop to ``_ckernel.run_loop``.

    Resolves the single-FullRecorder columnar store exactly like
    :func:`run_fused_rr` does, then runs the tick loop in C, under either
    schedule. At ``record="metrics"`` (a :class:`MetricsRecorder` leads the
    step observers) it hands over the recorder's :class:`RunMetrics`
    instead, and the loop folds each executed step's counts itself, adding
    them in when it returns or fails: the metrics are exact between run
    calls, not in the middle of one. At ``record="full"`` the store is
    handled the same way: the loop stages each row in C and appends the
    staged rows in bulk when its stage is full, before each
    ``_skip_span_rr`` call, and when it returns or fails, so the store and
    ``run.end_time`` are exact between run calls. Any other step observers
    get ``on_step_raw`` per step. The C loop calls back into Python only
    for process handlers (a :class:`~repro.sim.stack.ProtocolStack`'s
    layers directly, through the stack's dispatch plan), the delay model,
    the idle spans of a run that materializes idle steps and that it does
    not fill itself (``_skip_span_rr``), and step and log observers;
    everything else — due checks, shard pops, timeout firing, outbox
    expansion and sends, local-cursor refresh, the next-event scan, the
    idle-span counts of a run that materializes none (``_skip_span_rr``'s
    counting branch and ``_skip_span_random``, ported), the store's rows,
    the metrics fold and, under random scheduling, the block permutations
    and the walk of the block an event falls in — happens without touching
    the interpreter. Byte-identical to
    the Python fused loop (round-robin) and to the generic
    ``_advance_event_random`` (random) by construction and pinned by
    ``tests/test_kernel.py``; ``tests/test_metrics_fold.py`` and
    ``tests/test_kernel_stateful.py`` compare the folded
    :class:`RunMetrics` with the Python recorder's.
    """
    step_obs = sim._step_observers
    store = metrics = None
    if len(step_obs) == 1 and type(step_obs[0]) is FullRecorder:
        store = step_obs[0]._store
    elif step_obs and type(step_obs[0]) is MetricsRecorder:
        metrics = step_obs[0].metrics
    _ckernel.run_loop(sim, t_end, store, metrics)


def run_fused_rr(sim: "Simulation", t_end: Time) -> None:
    """Run the round-robin event engine to ``t_end`` in one fused loop.

    Semantically identical to ``while sim.time < t_end:
    sim._advance_event_rr(t_end)`` over a packed network — same handler
    call order, same RNG draws, same records, same counters — but the
    per-tick work reads the Python pool's columns directly (the C pool runs
    under the C loop instead, see :func:`fused_runner`), and full-fidelity
    recording appends straight into the run's columnar ``StepStore``. Idle
    stretches reuse the engine's span accounting (``_next_event_query`` /
    ``_skip_span_rr``), so crashes, idle-record materialization, and
    metrics behave exactly as before.
    """
    net = sim.network
    n = sim.n
    processes = sim.processes
    ctx = sim._ctx
    settle_at, settled = sim._fd_settle
    query_fd = sim.detector.query if settle_at > 0 else None
    failure_pattern = sim.failure_pattern
    crashed = failure_pattern.crashed
    has_crashes = bool(failure_pattern.crash_times)
    next_event = sim._next_event_query
    skip_span = sim._skip_span_rr
    local_event = sim._local_event
    next_timeout = sim._next_timeout
    intervals = sim.timeout_intervals
    inputs_by_pid = sim._inputs
    started = sim._started
    message_batch = sim.message_batch
    log_obs = sim._log_observers
    step_obs = sim._step_observers
    run = sim.run
    # [time, last_live_tick, _step_index], written in place like the C loop
    clock = sim._clock
    outbox = ctx._outbox
    outputs = ctx._outputs
    log_buf = ctx._log

    # Merge layer (inherited Network state — identical across kernels).
    next_at = net._next_at
    pending = net._pending
    counts = net._counts

    # Pool storage: the Python shard heaps and columns.
    shards = net._shards
    col_sender = net._col_sender
    col_send_time = net._col_send_time
    col_payload = net._col_payload
    free_append = net._free.append

    send_packed = net.send_packed
    send_all_packed = net.send_all_packed

    # Single-FullRecorder fast path: append into the columnar store inline
    # (mirrors StepStore.append_exec + RunRecord.record_histories_raw; the
    # differential tests pin the equivalence).
    store = None
    if len(step_obs) == 1 and type(step_obs[0]) is FullRecorder:
        store = step_obs[0]._store
    if store is not None:
        st_index = store._index
        col_st_index = st_index.append
        col_st_time = store._time.append
        col_st_pid = store._pid.append
        col_st_fd = store._fd.append
        col_st_sender = store._msg_sender.append
        col_st_payload = store._msg_payload.append
        col_st_send_time = store._msg_send_time.append
        col_st_timeout = store._timeout.append
        col_st_sent = store._sent.append
        col_st_received = store._received.append
        intern_fd = store._intern_fd
        sparse_inputs = store._inputs
        sparse_outputs = store._outputs
        input_history = run.input_history
        output_history = run.output_history

    heappop = heapq.heappop

    t = clock[0]
    while t < t_end:
        pid = t % n
        head = next_at[pid]
        if (head <= t or local_event[pid] <= t) and not (
            has_crashes and crashed(pid, t)
        ):
            # ---- one fused executed step (mirrors Simulation.step) ----
            clock[0] = t + 1
            clock[1] = t
            fd_value = settled if t >= settle_at else query_fd(pid, t)
            ctx.pid = pid
            ctx.time = t
            ctx.fd_value = fd_value
            process = processes[pid]
            if pid not in started:
                started.add(pid)
                process.on_start(ctx)

            in_q = inputs_by_pid[pid]
            if in_q and in_q[0][0] <= t:
                drained = []
                on_input = process.on_input
                while in_q and in_q[0][0] <= t:
                    __, __, value = heappop(in_q)
                    drained.append(value)
                    on_input(ctx, value)
                inputs_t = tuple(drained)
            else:
                inputs_t = ()

            received = 0
            first_sender = -1
            first_payload = None
            first_send_time = -1
            if head <= t:  # handlers so far queue nothing due at t
                shard = shards[pid]
                on_message = process.on_message
                while received < message_batch and shard:
                    key = shard[0]
                    deliver_at = key >> _KEY_SHIFT
                    if deliver_at > t:
                        break
                    heappop(shard)
                    slot = key & _SLOT_MASK
                    sender = col_sender[slot]
                    payload = col_payload[slot]
                    if received == 0:
                        first_sender = sender
                        first_payload = payload
                        first_send_time = col_send_time[slot]
                    received += 1
                    col_payload[slot] = None
                    free_append(slot)
                    on_message(ctx, sender, payload)
                counts[_DELIVERED] += received
                pending[pid] -= received
                next_at[pid] = shard[0] >> _KEY_SHIFT if shard else NO_MESSAGE

            event_at = next_timeout[pid]  # only this step moves it
            if t >= event_at:
                timeout_fired = True
                event_at = next_timeout[pid] = t + intervals[pid]
                process.on_timeout(ctx)
            else:
                timeout_fired = False

            sent = 0
            if outbox:
                for receiver, payload in outbox:
                    if receiver >= 0:
                        send_packed(pid, receiver, payload, t)
                        sent += 1
                    else:
                        sent += send_all_packed(
                            pid, payload, t, receiver == BROADCAST_ALL
                        )
                outbox.clear()

            if outputs:
                outputs_t = tuple(outputs)
                outputs.clear()
            else:
                outputs_t = ()
            if log_buf:
                if log_obs:
                    for event in log_buf:
                        for observer in log_obs:
                            observer.on_log(sim, t, pid, event)
                log_buf.clear()

            # _refresh_local, inlined.
            if in_q and in_q[0][0] < event_at:
                event_at = in_q[0][0]
            local_event[pid] = event_at

            index = clock[2]
            clock[2] = index + 1
            if store is not None:
                col_st_index(index)
                col_st_time(t)
                col_st_pid(pid)
                col_st_fd(None if fd_value is None else intern_fd(fd_value))
                col_st_sender(first_sender)
                col_st_payload(first_payload)
                col_st_send_time(first_send_time)
                col_st_timeout(1 if timeout_fired else 0)
                col_st_sent(sent)
                col_st_received(received)
                if inputs_t or outputs_t:
                    position = len(st_index) - 1
                    if inputs_t:
                        sparse_inputs[position] = inputs_t
                    if outputs_t:
                        sparse_outputs[position] = outputs_t
                if t > run.end_time:
                    run.end_time = t
                if inputs_t:
                    bucket = input_history.setdefault(pid, [])
                    bucket.extend((t, value) for value in inputs_t)
                if outputs_t:
                    bucket = output_history.setdefault(pid, [])
                    bucket.extend((t, value) for value in outputs_t)
            else:
                for observer in step_obs:
                    observer.on_step_raw(
                        sim, index, t, pid, first_sender, first_payload,
                        first_send_time, fd_value, inputs_t, outputs_t,
                        timeout_fired, sent, received,
                    )
            t += 1
            continue

        # Idle (or crash-gated) tick: jump to the next actionable one.
        target = next_event(t, True)
        if target is None or target >= t_end:
            skip_span(t, t_end)
            t = t_end
            break
        skip_span(t, target)
        t = target
    clock[0] = t
