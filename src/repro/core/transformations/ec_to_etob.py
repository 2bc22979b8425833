"""Algorithm 1: transformation from EC to ETOB.

Each broadcast is pushed to every process; each process accumulates pushed
messages in ``toDeliver``. The transformation runs consecutive EC instances;
in instance ``count`` it proposes its current delivered sequence ``d_i``
concatenated with the batch of received-but-undelivered messages, and adopts
every EC response as its new ``d_i``. Once EC responses agree (from the
paper's instance ``k`` on), all processes deliver the same, prefix-growing
sequence.

Sits above any layer accepting ``("propose", l, value)`` calls and emitting
``("decide", l, value)`` events with sequence-valued proposals (multivalued
EC), e.g. :class:`~repro.core.ec.EcUsingOmegaLayer`.

Calls / inputs: ``("broadcast", payload)``
Events: ``("deliver", seq)`` and ``("broadcast-uid", uid, payload)`` — the
same interface as :class:`~repro.core.etob.EtobLayer`, so ETOB consumers
(checkers, replication) work unchanged on top of either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.messages import AppMessage, MessageId, in_uid_order
from repro.sim.errors import ProtocolError
from repro.sim.stack import Layer, LayerContext
from repro.sim.types import ProcessId


@dataclass(frozen=True)
class Push:
    """The ``push(m)`` message of Algorithm 1."""

    message: AppMessage


class EcToEtobLayer(Layer):
    """Algorithm 1 (``T_EC->ETOB``), for one process."""

    name = "ec-to-etob"

    def __init__(self) -> None:
        #: output variable ``d_i``.
        self.delivered: tuple[AppMessage, ...] = ()
        #: ``toDeliver_i``: every message received via push.
        self.to_deliver: set[AppMessage] = set()
        #: ``count_i``: index of the last EC instance invoked.
        self.count = 0
        self._next_seq = 0
        #: NewBatch's index: ``to_deliver`` minus ``_batched_for`` by uid,
        #: where ``_batched_for`` is the ``delivered`` tuple (the object, so
        #: any reassignment shows) it was last brought in step with and
        #: ``_batched_uids`` that tuple's uids.
        self._undelivered: dict[MessageId, AppMessage] = {}
        self._batched_for: tuple[AppMessage, ...] = ()
        self._batched_uids: set[MessageId] = set()

    # -- functions of Algorithm 1 -------------------------------------------------

    def _new_batch(self) -> tuple[AppMessage, ...]:
        """``NewBatch(d_i, toDeliver_i)``: undelivered messages, uid-sorted."""
        delivered, old = self.delivered, self._batched_for
        if delivered is not old:
            if delivered[: len(old)] == old:
                # d_i grew by a suffix, as every decision does once EC agrees.
                for message in delivered[len(old) :]:
                    self._batched_uids.add(message.uid)
                    self._undelivered.pop(message.uid, None)
            else:
                self._batched_uids = {m.uid for m in delivered}
                self._undelivered = {
                    m.uid: m
                    for m in self.to_deliver
                    if m.uid not in self._batched_uids
                }
            self._batched_for = delivered
        return in_uid_order(self._undelivered)

    def _propose_next(self, ctx: LayerContext) -> None:
        proposal = self.delivered + self._new_batch()
        ctx.call_lower(("propose", self.count, proposal))

    # -- handlers (Algorithm 1, clause by clause) -----------------------------------

    def on_call(self, ctx: LayerContext, request: Any) -> None:
        # On reception of broadcastETOB(m) from the application: Send(push(m)).
        if not (isinstance(request, tuple) and request and request[0] == "broadcast"):
            raise ProtocolError(f"ec-to-etob cannot handle call {request!r}")
        payload = request[1]
        uid = MessageId(ctx.pid, self._next_seq)
        self._next_seq += 1
        message = AppMessage(uid, payload)
        ctx.send_all(Push(message), include_self=True)
        ctx.emit_upper(("broadcast-uid", uid, payload))

    def on_input(self, ctx: LayerContext, value: Any) -> None:
        self.on_call(ctx, value)

    def on_message(self, ctx: LayerContext, sender: ProcessId, payload: Any) -> None:
        # On reception of push(m): toDeliver_i := toDeliver_i + {m}.
        if isinstance(payload, Push):
            message = payload.message
            self.to_deliver.add(message)
            if message.uid not in self._batched_uids:
                self._undelivered.setdefault(message.uid, message)

    def on_lower_event(self, ctx: LayerContext, event: Any) -> None:
        # On reception of d as response of proposeEC_l:
        #   d_i := d; count_i := count_i + 1;
        #   proposeEC_count(d_i . NewBatch(d_i, toDeliver_i)).
        if not (isinstance(event, tuple) and event and event[0] == "decide"):
            return
        __, instance, decided = event
        if instance != self.count:
            return  # stale response of a superseded instance
        self.delivered = tuple(decided)
        ctx.emit_upper(("deliver", self.delivered))
        self.count += 1
        self._propose_next(ctx)

    def on_timeout(self, ctx: LayerContext) -> None:
        # On local timeout: if count_i = 0 then count_i := 1; proposeEC_1(...).
        if self.count == 0:
            self.count = 1
            self._propose_next(ctx)
