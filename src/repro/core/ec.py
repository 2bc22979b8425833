"""Eventual consensus from Omega — the paper's Algorithm 4.

Upon ``proposeEC_l(v)`` a process broadcasts ``promote(v, l)``; it stores
every received ``promote``; periodically (on local timeout) it checks whether
it has a value for its current instance from the process its Omega module
currently trusts, and if so returns that value.

Correctness (Lemma 2): once Omega stabilizes on a common correct leader, all
processes return the leader's proposal for every subsequent instance, giving
EC-Agreement from some instance ``k`` on, while EC-Termination, EC-Integrity
and EC-Validity hold throughout — in **any** environment.

Instances are identified by arbitrary hashable ids; the paper numbers them
``1, 2, ...``. A process tracks only its *current*
instance (the paper's ``count_i``) and decides only that one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from repro.sim.errors import ProtocolError
from repro.sim.stack import Layer, LayerContext, OmegaSource
from repro.sim.types import ProcessId


@dataclass(frozen=True)
class Promote:
    """The ``promote(v, l)`` message of Algorithm 4."""

    value: Any
    instance: Hashable


class EcUsingOmegaLayer(Layer):
    """Algorithm 4: EC using Omega, for one process.

    Calls (from the layer above, or as application inputs when top-most):
        ``("propose", instance, value)``

    Events (to the layer above):
        ``("decide", instance, value)``
    """

    name = "ec-omega"

    def __init__(self, *, omega_source: OmegaSource = None) -> None:
        self._set_omega_source(omega_source)
        #: the paper's ``count_i``: the instance currently being decided.
        self.count: Hashable | None = None
        #: the paper's ``received_i``: (sender, instance) -> value.
        self.received: dict[tuple[ProcessId, Hashable], Any] = {}
        #: instances already responded to (enforces EC-Integrity).
        self.decided: set[Hashable] = set()
        #: diagnostic counters
        self.proposals_made = 0

    # -- plumbing ---------------------------------------------------------------

    def _propose(self, ctx: LayerContext, instance: Hashable, value: Any) -> None:
        if instance in self.decided:
            raise ProtocolError(
                f"p{ctx.pid} proposed instance {instance!r} twice (already decided)"
            )
        self.count = instance
        self.proposals_made += 1
        ctx.send_all(Promote(value, instance))

    # -- handlers (Algorithm 4, clause by clause) ----------------------------------

    def on_call(self, ctx: LayerContext, request: Any) -> None:
        # On invocation of proposeEC_l(v): count_i := l; send promote(v, l) to all.
        if not (isinstance(request, tuple) and request and request[0] == "propose"):
            raise ProtocolError(f"ec-omega cannot handle call {request!r}")
        __, instance, value = request
        self._propose(ctx, instance, value)

    def on_input(self, ctx: LayerContext, value: Any) -> None:
        # Standalone use: application inputs are propose requests.
        self.on_call(ctx, value)

    def on_message(self, ctx: LayerContext, sender: ProcessId, payload: Any) -> None:
        # On reception of promote(v, l) from p_j: received_i[j, l] := v.
        if isinstance(payload, Promote):
            self.received[(sender, payload.instance)] = payload.value

    def on_timeout(self, ctx: LayerContext) -> None:
        # On local timeout: if received_i[Omega_i, count_i] != bottom,
        # DecideEC(count_i, received_i[Omega_i, count_i]).
        instance = self.count
        if instance is None or instance in self.decided:
            return
        leader = self._omega(ctx)
        value = self.received.get((leader, instance))
        if value is not None:
            self.decided.add(instance)
            ctx.emit_upper(("decide", instance, value))
