"""Reliable message-passing links: the buffer of messages in transit.

The paper assumes each pair of processes is connected by a reliable link:
every message sent to a correct process is eventually received, but delays are
finite yet unbounded. :class:`Network` holds messages in transit; each
message's integer delay comes from a
:class:`~repro.sim.envs.DelayModel`, and every model lives in
:mod:`repro.sim.envs` (:class:`~repro.sim.envs.FixedDelay` is the default).

A delivery time ``>= NEVER`` (a permanent partition) makes a message
undeliverable; such runs are not admissible in the paper's sense and are
used only to demonstrate blocking behaviours.

The merge layer — the per-receiver ``_next_at`` / ``_pending``
columns and the network-wide ``_counts`` — is ``array('q')`` state on every
rung, so the C tick loop (:mod:`repro.sim.kernel`) reads and writes the very
buffers Python reads, with no copy of its own. An empty queue's cursor reads
:data:`~repro.sim.types.NO_MESSAGE` (``2**63 - 1``, the largest int64), not
``None``; it is not :data:`~repro.sim.types.NEVER`, which is a queued
message that never arrives. Every rung refuses a delivery time at or past
``NO_MESSAGE`` with the same ``OverflowError``, before anything queues.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.sim.envs import DelayModel, FixedDelay
from repro.sim.types import NO_MESSAGE, ProcessId, Time

#: ``Network._counts`` slots: the counters behind :attr:`Network.sent_count`
#: (every queued message takes the next send sequence, so it is that too)
#: and :attr:`Network.delivered_count` (``_ckernel.c`` indexes the same
#: slots).
_SENT, _DELIVERED = range(2)


def deliver_time(t: Time, delay: Time) -> Time:
    """``t + delay`` for one drawn delay, checked as every rung checks it:
    ``ValueError`` for a delay below 1, ``OverflowError`` for a delivery
    time at or past :data:`~repro.sim.types.NO_MESSAGE`."""
    if delay < 1:
        raise ValueError(f"delay model produced non-positive delay {delay}")
    deliver_at = t + delay
    if deliver_at >= NO_MESSAGE:
        raise OverflowError(
            f"delivery time {t} + {delay} reaches NO_MESSAGE (2**63 - 1)"
        )
    return deliver_at


@dataclass(frozen=True, order=True, slots=True)
class Envelope:
    """A message in transit, ordered by delivery time then send order."""

    deliver_at: Time
    seq: int
    sender: ProcessId = field(compare=False)
    receiver: ProcessId = field(compare=False)
    payload: Any = field(compare=False)
    send_time: Time = field(compare=False)


class Network:
    """The message buffer: reliable, non-FIFO, crash-aware links.

    Messages are delivered one at a time in ``(deliver_at, send order)`` order
    per receiver; ties never occur because ``seq`` is globally unique. The
    network never drops messages; messages addressed to crashed processes are
    simply never consumed.

    Besides the per-receiver heaps, the network maintains a *next-delivery
    cursor* per receiver: ``_next_at[r]`` is the head delivery time of
    ``r``'s queue (:data:`~repro.sim.types.NO_MESSAGE` when it is empty),
    updated on send and pop, so "when does the next message arrive at
    ``r``?" never looks into a queue. The scheduler's next-event query and
    its quiescence check scan these cursors (see :mod:`repro.sim.scheduler`):
    a receiver whose cursor is at or past :data:`~repro.sim.types.NEVER`
    holds no deliverable mail, since its heap is ordered by delivery time.
    A per-receiver pending counter makes :meth:`in_transit` and
    :meth:`pending_for` O(1) per receiver as well. All of it is
    ``array('q')`` (module docstring).
    """

    def __init__(self, n: int, delay_model: DelayModel | None = None) -> None:
        if n < 1:
            raise ValueError(f"need at least one process, got n={n}")
        self.n = n
        self.delay_model: DelayModel = delay_model or FixedDelay(1)
        self._queues: list[list[Envelope]] = [[] for _ in range(n)]
        #: the network-wide counters, one ``array('q')`` (slots ``_SENT``,
        #: ``_DELIVERED``).
        self._counts = array("q", [0]) * 2
        #: per-receiver head delivery time (NO_MESSAGE = empty queue); equals
        #: ``self._queues[r][0].deliver_at`` at all times.
        self._next_at = array("q", [NO_MESSAGE]) * n
        #: per-receiver undelivered count (= ``len(self._queues[r])``).
        self._pending = array("q", [0]) * n

    @property
    def sent_count(self) -> int:
        """Messages queued so far."""
        return self._counts[_SENT]

    @property
    def delivered_count(self) -> int:
        """Messages consumed so far."""
        return self._counts[_DELIVERED]

    def send(
        self, sender: ProcessId, receiver: ProcessId, payload: Any, t: Time
    ) -> Envelope:
        """Place ``payload`` in transit from ``sender`` to ``receiver`` at time ``t``."""
        deliver_at = deliver_time(
            t, self.delay_model.delay(sender, receiver, t)
        )
        counts = self._counts
        seq = counts[_SENT]
        envelope = Envelope(
            deliver_at=deliver_at,
            seq=seq,
            sender=sender,
            receiver=receiver,
            payload=payload,
            send_time=t,
        )
        heapq.heappush(self._queues[receiver], envelope)
        counts[_SENT] = seq + 1
        self._pending[receiver] += 1
        if deliver_at < self._next_at[receiver]:
            self._next_at[receiver] = deliver_at
        return envelope

    def send_all(
        self,
        sender: ProcessId,
        payload: Any,
        t: Time,
        *,
        include_self: bool = True,
    ) -> list[Envelope]:
        """Send ``payload`` to every process (the paper's ``Send``), batched.

        Every delivery time is drawn and checked first
        (:meth:`_broadcast_deliver_times`), then the envelopes queue in one
        pass, sharing the payload: a model that raises, or a delivery time
        that is refused, leaves the network as it was.
        """
        receivers = [
            r for r in range(self.n) if include_self or r != sender
        ]
        times = self._broadcast_deliver_times(sender, t, receivers)
        counts = self._counts
        seq = counts[_SENT]
        queues = self._queues
        next_at = self._next_at
        pending = self._pending
        envelopes: list[Envelope] = []
        append = envelopes.append
        for receiver, deliver_at in zip(receivers, times):
            envelope = Envelope(
                deliver_at=deliver_at,
                seq=seq,
                sender=sender,
                receiver=receiver,
                payload=payload,
                send_time=t,
            )
            heapq.heappush(queues[receiver], envelope)
            seq += 1
            pending[receiver] += 1
            if deliver_at < next_at[receiver]:
                next_at[receiver] = deliver_at
            append(envelope)
        counts[_SENT] = seq
        return envelopes

    def _broadcast_deliver_times(
        self, sender: ProcessId, t: Time, receivers: list[ProcessId]
    ) -> list[Time]:
        """Every delivery time of one broadcast, checked
        (:func:`deliver_time`), before anything queues: one
        ``delay_profile`` call when the model has the hook (see
        :class:`~repro.sim.envs.DelayModel`), else one ``delay`` call per
        receiver in receiver order — the draws of as many point-to-point
        sends."""
        profile = getattr(self.delay_model, "delay_profile", None)
        if profile is None:
            delay_of = self.delay_model.delay
            delays = [delay_of(sender, receiver, t) for receiver in receivers]
        else:
            delays = profile(sender, t, receivers)
            if len(delays) != len(receivers):
                raise ValueError(
                    f"delay profile returned {len(delays)} delays for "
                    f"{len(receivers)} receivers"
                )
        return [deliver_time(t, delay) for delay in delays]

    # -- the scheduler's three calls (shared by every kernel) ---------------

    def send_packed(
        self, sender: ProcessId, receiver: ProcessId, payload: Any, t: Time
    ) -> int:
        """:meth:`send`, returning the message's send sequence."""
        return self.send(sender, receiver, payload, t).seq

    def send_all_packed(
        self,
        sender: ProcessId,
        payload: Any,
        t: Time,
        include_self: bool = True,
    ) -> int:
        """:meth:`send_all`, returning how many messages it queued."""
        return len(self.send_all(sender, payload, t, include_self=include_self))

    def peek_deliverable(self, receiver: ProcessId, t: Time) -> Envelope | None:
        """The oldest message deliverable to ``receiver`` at time ``t``, if any."""
        queue = self._queues[receiver]
        if queue and queue[0].deliver_at <= t:
            return queue[0]
        return None

    def pop_deliverable(self, receiver: ProcessId, t: Time) -> Envelope | None:
        """Consume and return the oldest deliverable message, if any."""
        queue = self._queues[receiver]
        if queue and queue[0].deliver_at <= t:
            self._counts[_DELIVERED] += 1
            self._pending[receiver] -= 1
            envelope = heapq.heappop(queue)
            self._next_at[receiver] = (
                queue[0].deliver_at if queue else NO_MESSAGE
            )
            return envelope
        return None

    def pop_deliverable_batch_raw(
        self, receiver: ProcessId, t: Time, limit: int
    ) -> list[tuple[Time, int, ProcessId, Time, Any]]:
        """Consume up to ``limit`` deliverable messages, oldest first, as
        ``(deliver_at, seq, sender, send_time, payload)`` tuples.

        One call replaces up to ``limit`` :meth:`pop_deliverable` calls per
        tick (the scheduler's ``message_batch`` loop): the queue head and
        the counters are updated once per popped message but
        the per-call indirection is paid once. Behaviour is pinned identical
        to repeated single pops by the differential tests.
        """
        queue = self._queues[receiver]
        if not queue or queue[0].deliver_at > t:
            return []
        popped: list[tuple[Time, int, ProcessId, Time, Any]] = []
        heappop = heapq.heappop
        while queue and queue[0].deliver_at <= t and len(popped) < limit:
            envelope = heappop(queue)
            popped.append(
                (
                    envelope.deliver_at,
                    envelope.seq,
                    envelope.sender,
                    envelope.send_time,
                    envelope.payload,
                )
            )
        count = len(popped)
        self._counts[_DELIVERED] += count
        self._pending[receiver] -= count
        self._next_at[receiver] = queue[0].deliver_at if queue else NO_MESSAGE
        return popped

    def next_delivery_time(self, receiver: ProcessId) -> Time | None:
        """Delivery time of the oldest in-transit message to ``receiver``
        (None when nothing is in transit to it)."""
        head = self._next_at[receiver]
        return None if head == NO_MESSAGE else head

    def in_transit(self, receiver: ProcessId | None = None) -> int:
        """Number of undelivered messages (optionally for one receiver). O(1)."""
        if receiver is not None:
            return self._pending[receiver]
        return sum(self._pending)

    def pending_for(self, receivers: Iterable[ProcessId]) -> int:
        """Number of undelivered messages addressed to any of ``receivers``.

        O(1) per receiver (reads the maintained per-receiver counters).
        """
        pending = self._pending
        return sum(pending[r] for r in receivers)

    def earliest_pending(self, receivers: Iterable[ProcessId]) -> Time | None:
        """Earliest delivery time among messages to ``receivers``, if any."""
        next_at = self._next_at
        head = min((next_at[r] for r in receivers), default=NO_MESSAGE)
        return None if head == NO_MESSAGE else head
