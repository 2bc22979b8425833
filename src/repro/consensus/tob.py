"""Strong total order broadcast from repeated consensus ([3]).

The classical transformation: URB-diffuse every broadcast message; run
consensus instances ``1, 2, ...`` on batches of received-but-undelivered
messages; append each decided batch (minus already delivered messages) to the
delivered sequence. With a correct majority (or Sigma) this implements the
full TOB specification — prefix-stable, totally ordered from time zero.

This is the strong-consistency comparator of the experiments: three
communication steps per delivery with a stable leader, and **blocked** in
majority mode when no correct majority exists — exactly the availability gap
the paper attributes to Sigma.

Sits above any consensus layer with the ``("propose", k, value)`` /
``("decide", k, value)`` interface, e.g.
:class:`~repro.consensus.paxos.PaxosConsensusLayer`.

Calls / inputs: ``("broadcast", payload)``
Events: ``("deliver", seq)`` and ``("broadcast-uid", uid, payload)`` — the
same interface as :class:`~repro.core.etob.EtobLayer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.messages import AppMessage, MessageId, in_uid_order
from repro.sim.errors import ProtocolError
from repro.sim.stack import Layer, LayerContext
from repro.sim.types import ProcessId


@dataclass(frozen=True)
class Diffuse:
    """URB-style eager diffusion of a broadcast message."""

    message: AppMessage


class TobFromConsensusLayer(Layer):
    """Total order broadcast from repeated consensus, for one process."""

    name = "tob-consensus"

    def __init__(self) -> None:
        self._next_seq = 0
        #: messages received (and relayed) but possibly not yet delivered.
        self.pending: dict[MessageId, AppMessage] = {}
        #: the part of ``pending`` not yet delivered (``pending`` is never
        #: pruned), kept on diffusion and delivery.
        self._undelivered: dict[MessageId, AppMessage] = {}
        #: the delivered sequence (grows by appends only).
        self.delivered: tuple[AppMessage, ...] = ()
        self._delivered_ids: set[MessageId] = set()
        #: next consensus instance to decide.
        self.next_instance = 1
        #: instances this process has proposed in.
        self._proposed: set[int] = set()
        #: decisions that arrived out of order, waiting for their turn.
        self._decisions: dict[int, tuple[AppMessage, ...]] = {}

    # -- dissemination -----------------------------------------------------------

    def _diffuse(self, ctx: LayerContext, message: AppMessage) -> None:
        if message.uid in self.pending or message.uid in self._delivered_ids:
            return
        self.pending[message.uid] = message
        self._undelivered[message.uid] = message
        ctx.send_all(Diffuse(message), include_self=False)

    def on_call(self, ctx: LayerContext, request: Any) -> None:
        if not (isinstance(request, tuple) and request and request[0] == "broadcast"):
            raise ProtocolError(f"tob-consensus cannot handle call {request!r}")
        payload = request[1]
        uid = MessageId(ctx.pid, self._next_seq)
        self._next_seq += 1
        message = AppMessage(uid, payload)
        self._diffuse(ctx, message)
        ctx.emit_upper(("broadcast-uid", uid, payload))
        self._maybe_propose(ctx)

    def on_input(self, ctx: LayerContext, value: Any) -> None:
        self.on_call(ctx, value)

    def on_message(self, ctx: LayerContext, sender: ProcessId, payload: Any) -> None:
        if isinstance(payload, Diffuse):
            self._diffuse(ctx, payload.message)
            self._maybe_propose(ctx)

    # -- consensus driving ----------------------------------------------------------

    def _undelivered_batch(self) -> tuple[AppMessage, ...]:
        return in_uid_order(self._undelivered)

    def _maybe_propose(self, ctx: LayerContext) -> None:
        if self.next_instance in self._proposed:
            return
        batch = self._undelivered_batch()
        if not batch:
            return
        self._proposed.add(self.next_instance)
        ctx.call_lower(("propose", self.next_instance, batch))

    def on_timeout(self, ctx: LayerContext) -> None:
        self._maybe_propose(ctx)

    def on_lower_event(self, ctx: LayerContext, event: Any) -> None:
        if not (isinstance(event, tuple) and event and event[0] == "decide"):
            return
        __, instance, batch = event
        self._decisions[instance] = tuple(batch)
        delivered_something = False
        while self.next_instance in self._decisions:
            for message in self._decisions.pop(self.next_instance):
                if message.uid in self._delivered_ids:
                    continue
                self._delivered_ids.add(message.uid)
                self.pending.setdefault(message.uid, message)
                self._undelivered.pop(message.uid, None)
                self.delivered = self.delivered + (message,)
                delivered_something = True
            self.next_instance += 1
        if delivered_something:
            ctx.emit_upper(("deliver", self.delivered))
        self._maybe_propose(ctx)
