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
  is allocated on send or pop unless an observer or compat caller actually
  needs one (lazy views, the same trick as
  :class:`~repro.sim.runs.StepStore`). The receiver column is implicit:
  a slot's receiver is the shard its key lives in.
- **Sharded horizon heaps** — instead of one object heap per receiver
  ordered by rich comparisons on ``Envelope``, each receiver has a heap of
  packed integer keys ``(deliver_at << 64) | (seq << 24) | slot``. Integer
  comparison preserves the exact ``(deliver_at, seq)`` delivery order
  (``seq`` is globally unique so the slot bits never decide), and push/pop
  never call ``__lt__`` on objects. The network-level merge layer — the
  ``_next_at`` index and the global lazy ``(deliver_at, receiver)`` horizon
  heap — is inherited unchanged from :class:`Network`, so the event
  engine's next-event queries work on every kernel.
- :func:`run_fused_rr` — the scheduler's dense-tick loop
  (``Simulation.step`` + batched pops + timeout check + recording) fused
  into one function that reads the packed columns directly and appends
  straight into the run's columnar :class:`~repro.sim.runs.StepStore`.
  Selected automatically on the packed and compiled kernels for
  ``engine="event"`` + round-robin runs whose observers all take the
  raw dispatch paths; every other configuration falls back to the generic
  engine (still on the packed network, through its compat methods).

Kernel selection — ``Simulation(kernel=...)``; the default is
:data:`DEFAULT_KERNEL`, the top rung when the extension loaded and
``packed`` otherwise:

``legacy``
    the PR 4 data plane: object heaps, generic engine loops.
``packed`` (the default without the extension)
    :class:`PackedNetwork` + the pure-Python fused loop: the fallback and
    the differential oracle of the two rungs above it.
``compiled``
    :class:`CompiledPackedNetwork`: the packed pool and shard heaps live in
    the optional C extension ``repro.sim._ckernel`` (built via
    ``python setup.py build_ext --inplace``; see ``pyproject.toml``), and
    so does the send path — one C implementation behind ``send_packed`` /
    ``send_all_packed`` / ``send`` / ``send_all`` whose only Python call
    is the delay model. The fused loop is shared with ``packed``.
    Requesting it without the extension built raises
    :class:`~repro.sim.errors.ConfigurationError`; :data:`HAS_COMPILED`
    reports availability.
``compiled-loop`` (the default with the extension)
    the C pool *plus* the C tick loop: ``_ckernel.run_loop`` owns the
    round-robin dense-tick loop itself (due checks, shard pops, timeout
    firing, outbox expansion through the C send path, local-index
    refresh, store appends) and calls back into Python only for process
    handlers, the delay model, idle-span accounting, and raw/log
    observers. Engages under the same conditions as the Python fused loop
    *and* additionally requires no send/deliver observers (those need
    per-envelope views the C loop never materializes); ineligible runs
    degrade one rung to the shared Python fused loop on the same network,
    never to an error — ``sim.fused_path`` / ``sim.fused_reason`` say
    which loop runs and why (see :func:`fused_runner`).
    :data:`HAS_COMPILED_LOOP` reports availability (the same fact as
    :data:`HAS_COMPILED`: a stale extension is refused whole, at import,
    by :mod:`repro.sim._compiled`).

All kernel rungs are pinned byte-identical (run records, counters, RNG
streams) by ``tests/test_kernel.py`` on top of the PR 4 differential oracle
machinery; ``run_fused_rr`` stays the reference implementation and
differential oracle for the C loop.

Handler contract (unchanged, but load-bearing here): process automata must
not retain the :class:`~repro.sim.context.Context` or any ``Envelope``
past their step. The fused loop reuses the pooled context, and packed
payload slots are recycled through the free list as soon as they are
consumed, so a retained reference would observe later steps' state.
"""

from __future__ import annotations

import heapq
from array import array
from typing import TYPE_CHECKING, Any, Callable

from repro.sim._compiled import ckernel as _ckernel
from repro.sim.context import BROADCAST_ALL
from repro.sim.errors import ConfigurationError
from repro.sim.network import (
    DEFAULT_COMPACT_FACTOR,
    DelayModel,
    Envelope,
    Network,
)
from repro.sim.observers import FullRecorder, SimObserver
from repro.sim.types import NEVER, ProcessId, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.scheduler import Simulation

#: valid values of ``Simulation(kernel=...)``.
KERNELS = ("legacy", "packed", "compiled", "compiled-loop")

#: scan-vs-heap cutover for the fused loop's idle next-event query: at
#: ``n <= SCAN_EVENT_CUTOVER`` a direct O(n) scan over the per-process
#: cursor indexes replaces the lazy-heap query. Measured by
#: ``benchmarks/bench_scan_cutover.py`` (n ∈ {4..256} sweep, idle-heavy
#: staggered-timeout schedule, single-CPU dev container): the scan wins at
#: every measured n on both loops — 1.1-1.8x over the heap query in the
#: Python fused loop and 1.1-2.8x in the compiled loop (where the scan is
#: a C array pass but the heap query is a Python call) — so the cutover
#: sits at the sweep's top edge and the heap query remains only as
#: asymptotic insurance for n > 256. Both paths compute the identical
#: target (align(min cursor) per process, crash-gated, minimized over
#: processes), so this constant is perf-only — never correctness.
SCAN_EVENT_CUTOVER = 256

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
#: ``kernel=`` default in the package reads this name; explicit values,
#: the one-rung degradation under envelope observers and "an explicitly
#: requested compiled rung without the extension raises" are unaffected.
DEFAULT_KERNEL = "compiled-loop" if HAS_COMPILED else "packed"


class PackedNetwork(Network):
    """Struct-of-arrays message pool behind the :class:`Network` API.

    In-transit messages live in parallel columns indexed by slot; each
    receiver's delivery order is a heap of packed integer keys (see module
    docstring). The merge layer — ``_next_at``, the global horizon heap,
    and all the per-receiver counters — is inherited from :class:`Network`
    and maintained identically, so the event engine and every public query
    (:meth:`horizon_peek`, :meth:`in_transit`, quiescence counters) are
    oblivious to the storage change. Compat methods (:meth:`send`,
    :meth:`pop_deliverable`, ...) materialize ``Envelope`` views on demand;
    the packed-primitive methods (:meth:`send_packed`,
    :meth:`send_all_packed`) and the fused loop skip them entirely.
    """

    def __init__(
        self,
        n: int,
        delay_model: DelayModel | None = None,
        *,
        compact_factor: int = DEFAULT_COMPACT_FACTOR,
    ) -> None:
        super().__init__(n, delay_model, compact_factor=compact_factor)
        #: the object heaps are replaced by the pool; poisoned so any code
        #: still reaching for them fails fast instead of desynchronizing.
        self._queues = None  # type: ignore[assignment]
        self._seq = None  # replaced by the inline integer counter below
        self._next_seq = 0
        self._col_deliver = array("q")
        self._col_seq = array("q")
        self._col_sender = array("i")
        self._col_send_time = array("q")
        self._col_payload: list[Any] = []
        #: recycled slots, LIFO (hot slots stay cache-warm).
        self._free: list[int] = []
        #: per-receiver heaps of packed integer keys.
        self._shards: list[list[int]] = [[] for _ in range(n)]

    # -- pool primitives ----------------------------------------------------

    def _alloc(
        self,
        deliver_at: Time,
        seq: int,
        sender: ProcessId,
        send_time: Time,
        payload: Any,
    ) -> int:
        """Claim a slot for a message; grows the columns when the free
        list is empty."""
        free = self._free
        if free:
            slot = free.pop()
            self._col_deliver[slot] = deliver_at
            self._col_seq[slot] = seq
            self._col_sender[slot] = sender
            self._col_send_time[slot] = send_time
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
            self._col_send_time.append(send_time)
            self._col_payload.append(payload)
        return slot

    def _view(self, slot: int, receiver: ProcessId) -> Envelope:
        """Materialize an ``Envelope`` for a live slot (copies the fields —
        safe to retain even after the slot is recycled)."""
        return Envelope(
            deliver_at=self._col_deliver[slot],
            seq=self._col_seq[slot],
            sender=self._col_sender[slot],
            receiver=receiver,
            payload=self._col_payload[slot],
            send_time=self._col_send_time[slot],
        )

    # -- sends --------------------------------------------------------------

    def send_packed(
        self, sender: ProcessId, receiver: ProcessId, payload: Any, t: Time
    ) -> int:
        """Queue a point-to-point message without materializing an
        ``Envelope``; returns the pool slot."""
        delay = self.delay_model.delay(sender, receiver, t)
        if delay < 1:
            raise ValueError(f"delay model produced non-positive delay {delay}")
        deliver_at = t + delay
        seq = self._next_seq
        if seq >= _SEQ_LIMIT:
            raise OverflowError("packed pool exhausted the 40-bit send sequence")
        self._next_seq = seq + 1
        slot = self._alloc(deliver_at, seq, sender, t, payload)
        heapq.heappush(
            self._shards[receiver],
            (deliver_at << _KEY_SHIFT) | (seq << _SLOT_BITS) | slot,
        )
        self.sent_count += 1
        self._pending[receiver] += 1
        if deliver_at < NEVER:
            self._live[receiver] += 1
            if receiver not in self._dead:
                self.live_pending += 1
        head = self._next_at[receiver]
        if head is None or deliver_at < head:
            self._next_at[receiver] = deliver_at
            horizon = self._horizon
            if len(horizon) > self._horizon_cap:
                self._compact_horizon()
            heapq.heappush(horizon, (deliver_at, receiver))
        return slot

    def send(
        self, sender: ProcessId, receiver: ProcessId, payload: Any, t: Time
    ) -> Envelope:
        slot = self.send_packed(sender, receiver, payload, t)
        return self._view(slot, receiver)

    def _send_all_common(
        self,
        sender: ProcessId,
        payload: Any,
        t: Time,
        include_self: bool,
        collect: list[Envelope] | None,
    ) -> int:
        """One batched broadcast pass (same draws and order as the legacy
        :meth:`Network.send_all`).

        With a vectorized delay profile every input is validated before any
        message queues (the profile contract), so the loop runs with local
        counters folded in at the end; the per-receiver ``delay()`` fallback
        keeps the legacy update-as-you-queue semantics so a model raising
        mid-broadcast leaves the network consistent with what was sent.
        """
        receivers = [r for r in range(self.n) if include_self or r != sender]
        profile = getattr(self.delay_model, "delay_profile", None)
        shards = self._shards
        next_at = self._next_at
        pending = self._pending
        live = self._live
        dead = self._dead
        horizon = self._horizon
        cap = self._horizon_cap
        heappush = heapq.heappush
        if profile is not None:
            delays = profile(sender, t, receivers)
            count = len(receivers)
            if len(delays) != count:
                raise ValueError(
                    f"delay profile returned {len(delays)} delays for "
                    f"{count} receivers"
                )
            for delay in delays:
                if delay < 1:
                    raise ValueError(
                        f"delay model produced non-positive delay {delay}"
                    )
            seq = self._next_seq
            if seq + count > _SEQ_LIMIT:
                raise OverflowError(
                    "packed pool exhausted the 40-bit send sequence"
                )
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
            live_gain = 0
            for position in range(count):
                receiver = receivers[position]
                deliver_at = t + delays[position]
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
                if deliver_at < NEVER:
                    live[receiver] += 1
                    if receiver not in dead:
                        live_gain += 1
                head = next_at[receiver]
                if head is None or deliver_at < head:
                    next_at[receiver] = deliver_at
                    if len(horizon) > cap:
                        self._compact_horizon()
                    heappush(horizon, (deliver_at, receiver))
                if collect is not None:
                    collect.append(
                        Envelope(deliver_at, seq - 1, sender, receiver, payload, t)
                    )
            self._next_seq = seq
            self.sent_count += count
            if live_gain:
                self.live_pending += live_gain
            return count
        delay_of = self.delay_model.delay
        count = 0
        for receiver in receivers:
            delay = delay_of(sender, receiver, t)
            if delay < 1:
                raise ValueError(
                    f"delay model produced non-positive delay {delay}"
                )
            deliver_at = t + delay
            seq = self._next_seq
            if seq >= _SEQ_LIMIT:
                raise OverflowError(
                    "packed pool exhausted the 40-bit send sequence"
                )
            self._next_seq = seq + 1
            slot = self._alloc(deliver_at, seq, sender, t, payload)
            heappush(
                shards[receiver],
                (deliver_at << _KEY_SHIFT) | (seq << _SLOT_BITS) | slot,
            )
            self.sent_count += 1
            pending[receiver] += 1
            if deliver_at < NEVER:
                live[receiver] += 1
                if receiver not in dead:
                    self.live_pending += 1
            head = next_at[receiver]
            if head is None or deliver_at < head:
                next_at[receiver] = deliver_at
                if len(horizon) > cap:
                    self._compact_horizon()
                heappush(horizon, (deliver_at, receiver))
            if collect is not None:
                collect.append(
                    Envelope(deliver_at, seq, sender, receiver, payload, t)
                )
            count += 1
        return count

    def send_all_packed(
        self,
        sender: ProcessId,
        payload: Any,
        t: Time,
        include_self: bool = True,
    ) -> int:
        """Broadcast without materializing envelopes; returns the count."""
        return self._send_all_common(sender, payload, t, include_self, None)

    def send_all(
        self,
        sender: ProcessId,
        payload: Any,
        t: Time,
        *,
        include_self: bool = True,
    ) -> list[Envelope]:
        envelopes: list[Envelope] = []
        self._send_all_common(sender, payload, t, include_self, envelopes)
        return envelopes

    # -- pops ---------------------------------------------------------------

    def peek_deliverable(self, receiver: ProcessId, t: Time) -> Envelope | None:
        shard = self._shards[receiver]
        if shard and shard[0] >> _KEY_SHIFT <= t:
            return self._view(shard[0] & _SLOT_MASK, receiver)
        return None

    def pop_deliverable(self, receiver: ProcessId, t: Time) -> Envelope | None:
        shard = self._shards[receiver]
        if not shard or shard[0] >> _KEY_SHIFT > t:
            return None
        key = heapq.heappop(shard)
        slot = key & _SLOT_MASK
        deliver_at = key >> _KEY_SHIFT
        envelope = Envelope(
            deliver_at=deliver_at,
            seq=self._col_seq[slot],
            sender=self._col_sender[slot],
            receiver=receiver,
            payload=self._col_payload[slot],
            send_time=self._col_send_time[slot],
        )
        self._col_payload[slot] = None  # drop the ref before recycling
        self._free.append(slot)
        self.delivered_count += 1
        self._pending[receiver] -= 1
        if deliver_at < NEVER:
            self._live[receiver] -= 1
            if receiver not in self._dead:
                self.live_pending -= 1
        if shard:
            head = shard[0] >> _KEY_SHIFT
            self._next_at[receiver] = head
            if len(self._horizon) > self._horizon_cap:
                self._compact_horizon()
            heapq.heappush(self._horizon, (head, receiver))
        else:
            self._next_at[receiver] = None
        return envelope

    def pop_deliverable_batch(
        self, receiver: ProcessId, t: Time, limit: int
    ) -> list[Envelope]:
        shard = self._shards[receiver]
        if not shard or shard[0] >> _KEY_SHIFT > t:
            return []
        popped: list[Envelope] = []
        live_drop = 0
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
                Envelope(
                    deliver_at=deliver_at,
                    seq=col_seq[slot],
                    sender=col_sender[slot],
                    receiver=receiver,
                    payload=col_payload[slot],
                    send_time=col_send_time[slot],
                )
            )
            col_payload[slot] = None
            free_append(slot)
            if deliver_at < NEVER:
                live_drop += 1
        count = len(popped)
        self.delivered_count += count
        self._pending[receiver] -= count
        if live_drop:
            self._live[receiver] -= live_drop
            if receiver not in self._dead:
                self.live_pending -= live_drop
        if shard:
            head = shard[0] >> _KEY_SHIFT
            self._next_at[receiver] = head
            if len(self._horizon) > self._horizon_cap:
                self._compact_horizon()
            heapq.heappush(self._horizon, (head, receiver))
        else:
            self._next_at[receiver] = None
        return popped

    def pop_deliverable_batch_raw(
        self, receiver: ProcessId, t: Time, limit: int
    ) -> list[tuple[Time, int, ProcessId, Time, Any]]:
        """Batch-pop due messages as ``(deliver_at, seq, sender, send_time,
        payload)`` tuples — no :class:`Envelope` materialization.

        Same pops, same accounting, same merge-layer updates as
        :meth:`pop_deliverable_batch`; the scheduler's generic loops take
        this path when no deliver observer needs an envelope view.
        """
        shard = self._shards[receiver]
        if not shard or shard[0] >> _KEY_SHIFT > t:
            return []
        popped: list[tuple[Time, int, ProcessId, Time, Any]] = []
        live_drop = 0
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
            if deliver_at < NEVER:
                live_drop += 1
        count = len(popped)
        self.delivered_count += count
        self._pending[receiver] -= count
        if live_drop:
            self._live[receiver] -= live_drop
            if receiver not in self._dead:
                self.live_pending -= live_drop
        if shard:
            head = shard[0] >> _KEY_SHIFT
            self._next_at[receiver] = head
            if len(self._horizon) > self._horizon_cap:
                self._compact_horizon()
            heapq.heappush(self._horizon, (head, receiver))
        else:
            self._next_at[receiver] = None
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
    list, per-receiver shard heaps). The merge layer and counters remain
    plain Python state on this object — the C send and pop paths update
    them in place — so the scheduler's event engine sees exactly the same
    ``_next_at`` / ``_horizon`` state as on every other kernel, and the
    delay model stays an ordinary Python object the C code calls. The
    Python columns inherited from :class:`PackedNetwork` stay empty and
    unused. Pickles and deep-copies like the other networks: the pool's
    state is its live slots, free stack and shard heaps as plain lists.
    """

    def __init__(
        self,
        n: int,
        delay_model: DelayModel | None = None,
        *,
        compact_factor: int = DEFAULT_COMPACT_FACTOR,
    ) -> None:
        if not HAS_COMPILED:
            raise ConfigurationError(
                "kernel='compiled' requested but repro.sim._ckernel is not "
                "built (or was refused as stale: see the RuntimeWarning at "
                "import); run `python setup.py build_ext --inplace` with a "
                "C compiler available, or use kernel='packed'"
            )
        super().__init__(n, delay_model, compact_factor=compact_factor)
        self._shards = None  # type: ignore[assignment]  # lives in the pool
        self._pool = _ckernel.Pool(n)

    # -- sends --------------------------------------------------------------
    #
    # One implementation, in C: ``_ckernel.send_packed`` /
    # ``_ckernel.send_all_packed`` draw through ``self.delay_model`` (the
    # only Python they call), enforce the same ``delay >= 1``, profile
    # length and 40-bit sequence checks as :class:`PackedNetwork` with the
    # same exceptions, queue into the pool and fold the merge layer in the
    # order :meth:`PackedNetwork.send_packed` does. ``run_loop`` expands
    # outboxes through the same code without coming back here.

    def send_packed(
        self, sender: ProcessId, receiver: ProcessId, payload: Any, t: Time
    ) -> int:
        """Queue a point-to-point message; returns its send sequence."""
        return _ckernel.send_packed(self, sender, receiver, payload, t)

    def send(
        self, sender: ProcessId, receiver: ProcessId, payload: Any, t: Time
    ) -> Envelope:
        rows: list[tuple] = []
        _ckernel.send_packed(self, sender, receiver, payload, t, rows)
        return Envelope(*rows[0])

    def send_all_packed(
        self,
        sender: ProcessId,
        payload: Any,
        t: Time,
        include_self: bool = True,
    ) -> int:
        return _ckernel.send_all_packed(self, sender, payload, t, include_self)

    def send_all(
        self,
        sender: ProcessId,
        payload: Any,
        t: Time,
        *,
        include_self: bool = True,
    ) -> list[Envelope]:
        rows: list[tuple] = []
        _ckernel.send_all_packed(self, sender, payload, t, include_self, rows)
        return [Envelope(*row) for row in rows]

    # -- pops ---------------------------------------------------------------

    def peek_deliverable(self, receiver: ProcessId, t: Time) -> Envelope | None:
        head = self._next_at[receiver]
        if head is None or head > t:
            return None
        deliver_at, seq, sender, send_time, payload = self._pool.peek(receiver)
        return Envelope(deliver_at, seq, sender, receiver, payload, send_time)

    def pop_deliverable(self, receiver: ProcessId, t: Time) -> Envelope | None:
        result = self._pool.pop_due(receiver, t)
        if result is None:
            return None
        deliver_at, seq, sender, send_time, payload, new_head = result
        self.delivered_count += 1
        self._pending[receiver] -= 1
        if deliver_at < NEVER:
            self._live[receiver] -= 1
            if receiver not in self._dead:
                self.live_pending -= 1
        if new_head >= 0:
            self._next_at[receiver] = new_head
            if len(self._horizon) > self._horizon_cap:
                self._compact_horizon()
            heapq.heappush(self._horizon, (new_head, receiver))
        else:
            self._next_at[receiver] = None
        return Envelope(deliver_at, seq, sender, receiver, payload, send_time)

    def _account_batch_pop(
        self, receiver: ProcessId, count: int, live_drop: int, new_head: int
    ) -> None:
        self.delivered_count += count
        self._pending[receiver] -= count
        if live_drop:
            self._live[receiver] -= live_drop
            if receiver not in self._dead:
                self.live_pending -= live_drop
        if new_head >= 0:
            self._next_at[receiver] = new_head
            if len(self._horizon) > self._horizon_cap:
                self._compact_horizon()
            heapq.heappush(self._horizon, (new_head, receiver))
        else:
            self._next_at[receiver] = None

    def pop_deliverable_batch(
        self, receiver: ProcessId, t: Time, limit: int
    ) -> list[Envelope]:
        items, new_head, live_drop = self._pool.pop_due_batch(
            receiver, t, limit
        )
        if not items:
            return []
        self._account_batch_pop(receiver, len(items), live_drop, new_head)
        return [
            Envelope(deliver_at, seq, sender, receiver, payload, send_time)
            for deliver_at, seq, sender, send_time, payload in items
        ]

    def pop_deliverable_batch_raw(
        self, receiver: ProcessId, t: Time, limit: int
    ) -> list[tuple[Time, int, ProcessId, Time, Any]]:
        items, new_head, live_drop = self._pool.pop_due_batch(
            receiver, t, limit
        )
        if not items:
            return []
        self._account_batch_pop(receiver, len(items), live_drop, new_head)
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
    compact_factor: int = DEFAULT_COMPACT_FACTOR,
) -> Network:
    """Build the network backing a kernel selection (see :data:`KERNELS`)."""
    if kernel == "legacy":
        return Network(n, delay_model, compact_factor=compact_factor)
    if kernel == "packed":
        return PackedNetwork(n, delay_model, compact_factor=compact_factor)
    if kernel in ("compiled", "compiled-loop"):
        return CompiledPackedNetwork(
            n, delay_model, compact_factor=compact_factor
        )
    raise ConfigurationError(
        f"unknown kernel {kernel!r}; expected one of {KERNELS}"
    )


def fused_runner(
    sim: "Simulation",
) -> tuple[Callable[["Simulation", Time], None] | None, str | None]:
    """``(runner, reason)``: the fused dense-tick runner ``run_until``
    hands ``sim`` to — None when it takes the generic engine paths — and
    why that is not the C tick loop (None when it is).

    A fused loop runs only under ``engine="event"``, on a packed network,
    when every attached step observer takes the raw dispatch path (the
    built-in recorders do) — then it is behaviourally identical to the
    generic event engine. Everything else runs the generic loops (against
    the packed network's compat methods where there is one).

    The C loop (``kernel="compiled-loop"``, the default when the
    extension loaded) needs one thing more: no send/deliver observer — it
    never materializes the Envelope views those hooks receive (log
    observers are fine; log dispatch crosses back into Python). Under
    round-robin scheduling such a run degrades one rung to the Python
    fused loop on the same network; the ladder never falls off to an
    error.

    Random scheduling is served by the C loop alone, under the same
    conditions plus one: nothing materializes idle steps
    (``record="full"`` and ``wants_idle_steps`` observers need every idle
    tick visited, which is the per-tick walk). There is no Python fused
    loop for it — one was measured slower than the generic engine — so a
    random-scheduled run that is not on the C loop steps generically
    (``Simulation._advance_event_random``, the single pure-Python
    implementation and the C path's oracle) and the runner is None, never
    :func:`run_fused_rr`.

    The reason is one of a few fixed strings, first match wins (observer
    reasons end in the blocking observer's class name):
    ``"engine=naive"``, ``"scheduling=random materializes idle steps"``,
    ``"legacy network"``, ``"non-raw step observer: <Class>"``,
    ``"extension not loaded"``, ``"kernel=<rung>"`` (a lower rung was
    asked for), ``"network=<Class>"`` (an explicit ``network=`` overrode
    the flag), ``"send/deliver observer: <Class>"``.
    """
    if sim.engine != "event":
        return None, f"engine={sim.engine}"
    random = sim.scheduling == "random"
    if random and sim._materialize_idle:
        return None, "scheduling=random materializes idle steps"
    if not isinstance(sim.network, PackedNetwork):
        return None, "legacy network"
    if sim._step_observers and sim._raw_step_observers is None:
        blocker = next(
            o for o in sim._step_observers
            if type(o).on_step_raw is SimObserver.on_step_raw
        )
        return None, f"non-raw step observer: {type(blocker).__name__}"
    python_loop = None if random else run_fused_rr
    if not HAS_COMPILED_LOOP:
        return python_loop, "extension not loaded"
    if sim.kernel != "compiled-loop":
        return python_loop, f"kernel={sim.kernel}"
    if not isinstance(sim.network, CompiledPackedNetwork):
        return python_loop, f"network={type(sim.network).__name__}"
    envelope_observers = sim._send_observers + sim._deliver_observers
    if envelope_observers:
        blocker = envelope_observers[0]
        return python_loop, f"send/deliver observer: {type(blocker).__name__}"
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
    schedule. The C loop calls back into Python only for process handlers,
    the delay model, the idle-span machinery (``_next_event_query`` on
    large n, ``_skip_span_rr`` / ``_skip_span_random``), and generic raw
    observers; everything else — due checks, shard pops, timeout firing,
    outbox expansion and sends, local-index refresh, store appends and,
    under random scheduling, the block permutations and the walk of the
    block an event falls in — happens without touching the interpreter.
    Byte-identical to the Python fused loop (round-robin) and to the
    generic ``_advance_event_random`` (random) by construction and pinned
    by ``tests/test_kernel.py``.
    """
    raw_obs = sim._raw_step_observers
    store = None
    if raw_obs is not None and len(raw_obs) == 1 and type(raw_obs[0]) is FullRecorder:
        store = raw_obs[0]._store
    _ckernel.run_loop(sim, t_end, store)


def run_fused_rr(sim: "Simulation", t_end: Time) -> None:
    """Run the round-robin event engine to ``t_end`` in one fused loop.

    Semantically identical to ``while sim.time < t_end:
    sim._advance_event_rr(t_end)`` over a packed network — same handler
    call order, same RNG draws, same records, same counters — but the
    per-tick work reads the packed columns directly: shard-heap pops and
    sends never materialize envelopes (unless a deliver/send observer is
    attached), and full-fidelity recording appends straight into the run's
    columnar ``StepStore``. Idle stretches reuse the engine's span
    accounting (``_next_event_query`` / ``_skip_span_rr``), so crashes,
    idle-record materialization, and metrics behave exactly as before.
    """
    net = sim.network
    n = sim.n
    processes = sim.processes
    ctx = sim._ctx
    detector = sim.detector
    query_fd = detector.query if detector is not None else None
    failure_pattern = sim.failure_pattern
    crashed = failure_pattern.crashed
    has_crashes = bool(failure_pattern.crash_times)
    query_next = sim._next_event_query
    skip_span = sim._skip_span_rr
    crash_get = failure_pattern.crash_times.get
    #: at small n a direct scan over the two per-process indexes beats the
    #: lazy-heap query (no pops/reinserts); both compute the identical
    #: target — align(min of the two cursors) per process, crash-gated,
    #: minimized over processes — the heaps just answer it sublinearly.
    #: The cutover is measured (see SCAN_EVENT_CUTOVER) and carried on the
    #: sim so tests and the sweep benchmark can force either path.
    scan_events = n <= sim._scan_cutover
    local_event = sim._local_event
    local_horizon = sim._local_horizon
    local_cap = sim._local_cap
    next_timeout = sim._next_timeout
    intervals = sim.timeout_intervals
    inputs_by_pid = sim._inputs
    started = sim._started
    message_batch = sim.message_batch
    deliver_obs = sim._deliver_observers
    send_obs = sim._send_observers
    log_obs = sim._log_observers
    raw_obs = sim._raw_step_observers
    run = sim.run

    # Merge layer (inherited Network state — identical across kernels).
    next_at = net._next_at
    pending = net._pending
    live = net._live
    dead = net._dead
    horizon = net._horizon
    horizon_cap = net._horizon_cap

    # Pool storage: Python shard heaps + columns, or the C pool.
    pool = getattr(net, "_pool", None)
    if pool is None:
        shards = net._shards
        col_seq = net._col_seq
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
    if raw_obs is not None and len(raw_obs) == 1 and type(raw_obs[0]) is FullRecorder:
        store = raw_obs[0]._store
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
    heappush = heapq.heappush
    heapify = heapq.heapify

    t = sim.time
    while t < t_end:
        pid = t % n
        if local_event[pid] <= t:
            due = True
        else:
            head = next_at[pid]
            due = head is not None and head <= t
        if due and not (has_crashes and crashed(pid, t)):
            # ---- one fused executed step (mirrors Simulation.step) ----
            sim.time = t + 1
            sim.last_live_tick = t
            fd_value = query_fd(pid, t) if query_fd is not None else None
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
            if pool is None:
                shard = shards[pid]
                if shard and shard[0] >> _KEY_SHIFT <= t:
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
                        if deliver_at < NEVER:
                            live[pid] -= 1
                            if pid not in dead:
                                net.live_pending -= 1
                        if deliver_obs:
                            envelope = Envelope(
                                deliver_at, col_seq[slot], sender, pid,
                                payload, col_send_time[slot],
                            )
                            col_payload[slot] = None
                            free_append(slot)
                            for observer in deliver_obs:
                                observer.on_deliver(sim, envelope)
                        else:
                            col_payload[slot] = None
                            free_append(slot)
                        on_message(ctx, sender, payload)
                    net.delivered_count += received
                    pending[pid] -= received
                    if shard:
                        head = shard[0] >> _KEY_SHIFT
                        next_at[pid] = head
                        if len(horizon) > horizon_cap:
                            net._compact_horizon()
                        heappush(horizon, (head, pid))
                    else:
                        next_at[pid] = None
            else:
                head = next_at[pid]
                if head is not None and head <= t:
                    on_message = process.on_message
                    new_head = -1
                    result = pool.pop_due(pid, t)
                    while result is not None:
                        (
                            deliver_at, seq, sender, send_time, payload,
                            new_head,
                        ) = result
                        if received == 0:
                            first_sender = sender
                            first_payload = payload
                            first_send_time = send_time
                        received += 1
                        if deliver_at < NEVER:
                            live[pid] -= 1
                            if pid not in dead:
                                net.live_pending -= 1
                        if deliver_obs:
                            envelope = Envelope(
                                deliver_at, seq, sender, pid, payload,
                                send_time,
                            )
                            for observer in deliver_obs:
                                observer.on_deliver(sim, envelope)
                        on_message(ctx, sender, payload)
                        if (
                            received >= message_batch
                            or new_head < 0
                            or new_head > t
                        ):
                            break
                        result = pool.pop_due(pid, t)
                    net.delivered_count += received
                    pending[pid] -= received
                    if new_head >= 0:
                        next_at[pid] = new_head
                        if len(horizon) > horizon_cap:
                            net._compact_horizon()
                        heappush(horizon, (new_head, pid))
                    else:
                        next_at[pid] = None

            if t >= next_timeout[pid]:
                timeout_fired = True
                next_timeout[pid] = t + intervals[pid]
                process.on_timeout(ctx)
            else:
                timeout_fired = False

            outbox = ctx._outbox
            sent = 0
            if outbox:
                ctx._outbox = []
                if send_obs:
                    for receiver, payload in outbox:
                        if receiver >= 0:
                            envelope = net.send(pid, receiver, payload, t)
                            sent += 1
                            for observer in send_obs:
                                observer.on_send(sim, envelope)
                        else:
                            for envelope in net.send_all(
                                pid, payload, t,
                                include_self=receiver == BROADCAST_ALL,
                            ):
                                sent += 1
                                for observer in send_obs:
                                    observer.on_send(sim, envelope)
                else:
                    for receiver, payload in outbox:
                        if receiver >= 0:
                            send_packed(pid, receiver, payload, t)
                            sent += 1
                        else:
                            sent += send_all_packed(
                                pid, payload, t, receiver == BROADCAST_ALL
                            )

            outputs = ctx._outputs
            if outputs:
                ctx._outputs = []
                outputs_t = tuple(outputs)
            else:
                outputs_t = ()
            log_buf = ctx._log
            if log_buf:
                ctx._log = []
                if log_obs:
                    for event in log_buf:
                        for observer in log_obs:
                            observer.on_log(sim, t, pid, event)

            # _refresh_local, inlined.
            event_at = next_timeout[pid]
            if in_q and in_q[0][0] < event_at:
                event_at = in_q[0][0]
            if event_at != local_event[pid]:
                local_event[pid] = event_at
                if len(local_horizon) > local_cap:
                    local_horizon[:] = [
                        (local_event[p], p) for p in range(n)
                    ]
                    heapify(local_horizon)
                heappush(local_horizon, (event_at, pid))

            index = sim._step_index
            sim._step_index = index + 1
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
            elif raw_obs is not None:
                for observer in raw_obs:
                    observer.on_step_raw(
                        sim, index, t, pid, first_sender, first_payload,
                        first_send_time, fd_value, inputs_t, outputs_t,
                        timeout_fired, sent, received,
                    )
            t += 1
            continue

        # Idle (or crash-gated) tick: jump to the next actionable one.
        if scan_events:
            target = None
            for p in range(n):
                event_at = local_event[p]
                deliver_at = next_at[p]
                if deliver_at is not None and deliver_at < event_at:
                    event_at = deliver_at
                eff = event_at if event_at > t else t
                tick = eff + ((p - eff) % n)
                if has_crashes:
                    crash_at = crash_get(p)
                    if crash_at is not None and tick >= crash_at:
                        continue
                if target is None or tick < target:
                    target = tick
        else:
            target = query_next(t, True)
        if target is None or target >= t_end:
            skip_span(t, t_end)
            t = t_end
            break
        skip_span(t, target)
        t = target
    sim.time = t
