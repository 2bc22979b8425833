"""Ablation variants of Algorithm 5.

Algorithm 5 owes TOB-Causal-Order to two coupled choices: messages travel as
*whole causal graphs* (``update(CG_i)``, so knowledge is always causally
closed) and the promote sequence is a *causal linearization*
(``UpdatePromote``). :class:`ArrivalOrderEtobLayer` drops both: messages are
disseminated individually and the leader promotes them in arrival order.
Leader promotion and adoption from the trusted leader stay unchanged.

With network reordering (random delays), a reply can overtake the message it
replies to, and the ablated leader happily orders effect before cause — the
causal experiment (EXP-6) counts exactly these violations, demonstrating the
guarantee comes from the graph machinery and not from the dissemination
pattern. Dependencies are still *recorded* on messages so the checker can
judge the outcome; they are just ignored for ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.etob import PromoteSequence
from repro.core.messages import AppMessage, MessageId
from repro.sim.errors import ProtocolError
from repro.sim.stack import Layer, LayerContext, OmegaSource
from repro.sim.types import ProcessId


@dataclass(frozen=True)
class SingleUpdate:
    """Per-message dissemination (no causal closure on the wire)."""

    message: AppMessage


class ArrivalOrderEtobLayer(Layer):
    """Algorithm 5 without graph dissemination or causal linearization."""

    name = "etob-arrival"

    def __init__(self, *, omega_source: OmegaSource = None) -> None:
        self._set_omega_source(omega_source)
        self.delivered: tuple[AppMessage, ...] = ()
        self.promote: tuple[AppMessage, ...] = ()
        self.known: dict[MessageId, AppMessage] = {}
        self._next_seq = 0
        self._promotes_sent = 0
        self._promote_epoch_seen: dict[ProcessId, int] = {}

    def _absorb(self, message: AppMessage) -> None:
        if message.uid in self.known:
            return
        self.known[message.uid] = message
        # Arrival order, not causal order: simply append.
        self.promote = self.promote + (message,)

    def _frontier(self) -> frozenset[MessageId]:
        depended_on: set[MessageId] = set()
        for message in self.known.values():
            depended_on |= message.deps
        return frozenset(self.known) - depended_on

    def broadcast(self, ctx: LayerContext, payload: Any) -> AppMessage:
        uid = MessageId(ctx.pid, self._next_seq)
        self._next_seq += 1
        message = AppMessage(uid, payload, self._frontier())
        self._absorb(message)
        ctx.send_all(SingleUpdate(message), include_self=False)
        ctx.emit_upper(("broadcast-uid", uid, payload))
        return message

    def on_call(self, ctx: LayerContext, request: Any) -> None:
        if not (isinstance(request, tuple) and request and request[0] == "broadcast"):
            raise ProtocolError(f"etob-arrival cannot handle call {request!r}")
        self.broadcast(ctx, request[1])

    def on_input(self, ctx: LayerContext, value: Any) -> None:
        self.on_call(ctx, value)

    def on_message(self, ctx: LayerContext, sender: ProcessId, payload: Any) -> None:
        if isinstance(payload, SingleUpdate):
            self._absorb(payload.message)
        elif isinstance(payload, PromoteSequence):
            if payload.epoch < self._promote_epoch_seen.get(sender, -1):
                return  # reordered stale promote (see PromoteSequence)
            self._promote_epoch_seen[sender] = payload.epoch
            if self._omega(ctx) == sender and self.delivered != payload.sequence:
                self.delivered = payload.sequence
                ctx.emit_upper(("deliver", self.delivered))

    def on_timeout(self, ctx: LayerContext) -> None:
        if self._omega(ctx) == self.pid:
            self._promotes_sent += 1
            ctx.send_all(
                PromoteSequence(self.promote, self._promotes_sent), include_self=True
            )
