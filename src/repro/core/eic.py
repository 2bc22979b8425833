"""Eventual irrevocable consensus (EIC) — Appendix A of the paper.

EIC relaxes *integrity* instead of agreement: a process may revise its
response to an instance a finite number of times; eventually responses stop
changing and (eventually) agree.

The paper obtains EIC from EC by transformation (Algorithm 6, in
:mod:`repro.core.transformations.ec_to_eic`). This module additionally
provides a natural *direct* implementation from Omega — not an algorithm of
the paper, but the obvious adaptation of Algorithm 4: respond immediately
with the current leader's proposal and revise whenever the trusted leader
(hence the trusted value) changes. Once Omega stabilizes, revisions cease,
which yields exactly the EIC guarantees.

Calls / inputs: ``("propose", instance, value)``
Events: ``("decide", instance, value)`` — possibly repeated per instance with
different values; the *last* one is the current response.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.core.ec import Promote
from repro.sim.errors import ProtocolError
from repro.sim.stack import Layer, LayerContext, OmegaSource
from repro.sim.types import ProcessId


class EicUsingOmegaLayer(Layer):
    """Direct EIC from Omega: revocable leader-value adoption."""

    name = "eic-omega"

    def __init__(self, *, omega_source: OmegaSource = None) -> None:
        self._set_omega_source(omega_source)
        self.received: dict[tuple[ProcessId, Hashable], Any] = {}
        #: instances proposed so far (revisions may touch any of them).
        self.proposed: set[Hashable] = set()
        #: last response per instance.
        self.responses: dict[Hashable, Any] = {}
        #: diagnostic: total number of revisions (re-responses).
        self.revisions = 0

    def on_call(self, ctx: LayerContext, request: Any) -> None:
        if not (isinstance(request, tuple) and request and request[0] == "propose"):
            raise ProtocolError(f"eic-omega cannot handle call {request!r}")
        __, instance, value = request
        self.proposed.add(instance)
        ctx.send_all(Promote(value, instance))

    def on_input(self, ctx: LayerContext, value: Any) -> None:
        self.on_call(ctx, value)

    def on_message(self, ctx: LayerContext, sender: ProcessId, payload: Any) -> None:
        if isinstance(payload, Promote):
            self.received[(sender, payload.instance)] = payload.value

    def on_timeout(self, ctx: LayerContext) -> None:
        leader = self._omega(ctx)
        for instance in sorted(self.proposed, key=repr):
            value = self.received.get((leader, instance))
            if value is None:
                continue
            if instance not in self.responses:
                self.responses[instance] = value
                ctx.emit_upper(("decide", instance, value))
            elif self.responses[instance] != value:
                self.responses[instance] = value
                self.revisions += 1
                ctx.emit_upper(("decide", instance, value))
