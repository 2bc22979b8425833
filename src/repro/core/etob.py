"""Eventual total order broadcast from Omega — the paper's Algorithm 5.

Every process that broadcasts a message records it (with its causal
dependencies) in its causal graph ``CG_i`` and disseminates the graph with
``update`` messages. A process that believes itself leader (its Omega module
outputs its own id) periodically sends its *promote sequence* — a causal
linearization of its graph that only ever grows by extension — and every
process adopts, as its delivered sequence ``d_i``, the last promote sequence
received from its *current* leader.

Headline properties (all verified by the property checkers and experiments):

- two communication steps from broadcast to stable delivery under a stable
  leader: ``update`` to the leader, then ``promote`` to everyone;
- if Omega outputs the same leader everywhere from the very beginning, the
  algorithm implements *strong* total order broadcast (tau = 0);
- causal order holds at all times, even while different processes trust
  different leaders (divergence periods).

Calls / inputs:
    ``("broadcast", payload)``             — dependencies = current frontier
    ``("broadcast", payload, deps)``       — explicit ``C(m)`` (iterable of
                                             :class:`MessageId`)

Events (to the layer above / application):
    ``("deliver", seq)`` with ``seq`` a tuple of :class:`AppMessage` — emitted
    whenever ``d_i`` changes; the *current value* of ``d_i``, not a delta
    (``d_i`` may shrink or be reordered before stabilization).
    ``("broadcast-uid", uid, payload)``    — local echo so applications can
                                             correlate their broadcasts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.causal_graph import CausalGraph
from repro.core.messages import AppMessage, MessageId
from repro.sim.errors import ProtocolError
from repro.sim.stack import Layer, LayerContext, OmegaSource
from repro.sim.types import ProcessId


@dataclass(frozen=True)
class CausalUpdate:
    """The ``update(CG_i)`` message: a frozen snapshot of the sender's graph."""

    messages: tuple[AppMessage, ...]


@dataclass(frozen=True)
class PromoteSequence:
    """The ``promote(promote_i)`` message: the leader's current linearization.

    ``epoch`` counts the sender's promote messages. The paper's stability
    proof reads consecutive adoptions off consecutive promote snapshots of
    the stable leader, which presumes promotes are consumed in send order;
    our links may reorder, so receivers drop promotes older than the last
    one adopted from the same sender (a per-sender FIFO filter).
    """

    sequence: tuple[AppMessage, ...]
    epoch: int = 0


class EtobLayer(Layer):
    """Algorithm 5 (``ETOB``), for one process."""

    name = "etob"

    def __init__(self, *, omega_source: OmegaSource = None) -> None:
        self._set_omega_source(omega_source)
        #: output variable ``d_i``: the delivered sequence.
        self.delivered: tuple[AppMessage, ...] = ()
        #: ``promote_i``: the sequence this process promotes while leader.
        self.promote: tuple[AppMessage, ...] = ()
        #: ``CG_i``: causality graph of all known messages.
        self.graph = CausalGraph()
        self._next_seq = 0
        #: per-sender epoch of the last promote considered (FIFO filter).
        self._promote_epoch_seen: dict[ProcessId, int] = {}
        #: diagnostics
        self.promotes_sent = 0
        self.adoptions = 0
        self.stale_promotes_dropped = 0

    # -- plumbing ---------------------------------------------------------------

    def _refresh_promote(self) -> None:
        # UpdatePromote(): extend promote_i with the not-yet-promoted messages
        # of CG_i in a causal-respecting deterministic order.
        self.promote = self.graph.linearize_extending(self.promote)

    # -- broadcast ----------------------------------------------------------------

    def broadcast(
        self,
        ctx: LayerContext,
        payload: Any,
        deps: Iterable[MessageId] | None = None,
    ) -> AppMessage:
        """``broadcastETOB(m, C(m))``; returns the created message."""
        if deps is None:
            dependency_set = self.graph.frontier()
        else:
            dependency_set = frozenset(deps)
        uid = MessageId(ctx.pid, self._next_seq)
        self._next_seq += 1
        message = AppMessage(uid, payload, dependency_set)
        # UpdateCG(m, C(m)) locally, then disseminate the whole graph. We
        # refresh our own promote immediately (equivalent to the paper's
        # self-addressed update message, minus one hop).
        self.graph.add(message)
        self._refresh_promote()
        ctx.send_all(CausalUpdate(self.graph.messages()), include_self=False)
        ctx.emit_upper(("broadcast-uid", uid, payload))
        return message

    # -- handlers (Algorithm 5, clause by clause) --------------------------------------

    def on_call(self, ctx: LayerContext, request: Any) -> None:
        if not (isinstance(request, tuple) and request and request[0] == "broadcast"):
            raise ProtocolError(f"etob cannot handle call {request!r}")
        if len(request) == 2:
            self.broadcast(ctx, request[1])
        elif len(request) == 3:
            self.broadcast(ctx, request[1], request[2])
        else:
            raise ProtocolError(f"malformed broadcast request {request!r}")

    def on_input(self, ctx: LayerContext, value: Any) -> None:
        self.on_call(ctx, value)

    def on_message(self, ctx: LayerContext, sender: ProcessId, payload: Any) -> None:
        # Promotes first: every leader timeout sends one to all, so they
        # outnumber updates.
        if isinstance(payload, PromoteSequence):
            # On reception of promote(promote_j) from p_j:
            # if Omega_i = p_j then d_i := promote_j.
            if payload.epoch < self._promote_epoch_seen.get(sender, -1):
                self.stale_promotes_dropped += 1  # reordered; see PromoteSequence
                return
            self._promote_epoch_seen[sender] = payload.epoch
            if self._omega(ctx) == sender and self.delivered != payload.sequence:
                self.delivered = payload.sequence
                self.adoptions += 1
                ctx.emit_upper(("deliver", self.delivered))
        elif isinstance(payload, CausalUpdate):
            # On reception of update(CG_j): UnionCG(CG_j); UpdatePromote().
            self.graph.union(payload.messages)
            self._refresh_promote()

    def on_timeout(self, ctx: LayerContext) -> None:
        # On local timeout: if Omega_i = p_i, send promote(promote_i) to all.
        if self._omega(ctx) == self.pid:
            self.promotes_sent += 1
            ctx.send_all(
                PromoteSequence(self.promote, self.promotes_sent), include_self=True
            )
