"""An *implemented* Omega: heartbeats with adaptive timeouts.

The oracle detectors elsewhere in this package are histories generated from
the failure pattern. This module instead implements Omega as a protocol layer:
every process periodically heartbeats; a process suspects a peer whose
heartbeat is overdue relative to an adaptive per-peer bound; premature
suspicions raise the bound, so under partial synchrony (network delays bounded
after a global stabilization time, e.g. :class:`repro.sim.envs.AgeGstDist`)
bounds eventually exceed the real delay and suspicions of correct processes
stop. The leader is the smallest unsuspected process id, so eventually all
correct processes agree on the smallest correct process — exactly Omega's
guarantee.

Use as the bottom layer of a :class:`~repro.sim.stack.ProtocolStack` and hand
protocols an ``omega_source`` closure reading :attr:`current_leader`, or use
:class:`HeartbeatOmegaProcess` standalone to study the detector itself (its
output history is the stream of ``("leader", pid)`` outputs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim.process import Process
from repro.sim.stack import Layer, LayerContext, ProtocolStack
from repro.sim.types import ProcessId, Time


@dataclass(frozen=True)
class Heartbeat:
    """The heartbeat message; ``epoch`` counts the sender's beats."""

    epoch: int


class HeartbeatOmegaLayer(Layer):
    """Leader election from heartbeats under partial synchrony."""

    name = "heartbeat-omega"

    def __init__(
        self,
        *,
        beat_every: int = 1,
        initial_bound: Time = 8,
        bound_increment: Time = 4,
    ) -> None:
        if beat_every < 1 or initial_bound < 1 or bound_increment < 1:
            raise ValueError("heartbeat parameters must be >= 1")
        self.beat_every = beat_every
        self.initial_bound = initial_bound
        self.bound_increment = bound_increment
        self._timeouts_seen = 0
        self._epoch = 0
        self._last_heard: dict[ProcessId, Time] = {}
        self._bound: dict[ProcessId, Time] = {}
        self._suspected: set[ProcessId] = set()
        self.current_leader: ProcessId = 0
        self.leader_changes = 0

    # -- protocol ---------------------------------------------------------------

    def on_start(self, ctx: LayerContext) -> None:
        self.current_leader = ctx.pid if ctx.n == 0 else 0
        for peer in range(ctx.n):
            self._last_heard[peer] = ctx.time
            self._bound[peer] = self.initial_bound
        ctx.send_all(Heartbeat(self._epoch), include_self=False)

    def on_message(self, ctx: LayerContext, sender: ProcessId, payload: Any) -> None:
        if not isinstance(payload, Heartbeat):
            return
        self._last_heard[sender] = ctx.time
        if sender in self._suspected:
            # Premature suspicion: forgive and become more patient with it.
            self._suspected.discard(sender)
            self._bound[sender] += self.bound_increment
            self._elect(ctx)

    def on_timeout(self, ctx: LayerContext) -> None:
        self._timeouts_seen += 1
        if self._timeouts_seen % self.beat_every == 0:
            self._epoch += 1
            ctx.send_all(Heartbeat(self._epoch), include_self=False)
        changed = False
        for peer in range(ctx.n):
            if peer == ctx.pid or peer in self._suspected:
                continue
            if ctx.time - self._last_heard[peer] > self._bound[peer]:
                self._suspected.add(peer)
                changed = True
        if changed:
            self._elect(ctx)

    # -- leadership ---------------------------------------------------------------

    def _elect(self, ctx: LayerContext) -> None:
        candidates = [p for p in range(ctx.n) if p not in self._suspected]
        leader = min(candidates) if candidates else ctx.pid
        if leader != self.current_leader:
            self.current_leader = leader
            self.leader_changes += 1
            ctx.emit_upper(("leader", leader))

    def suspected(self) -> frozenset[ProcessId]:
        """The currently suspected set (diagnostic)."""
        return frozenset(self._suspected)

    def omega_source(self):
        """A closure suitable as the ``omega_source`` of protocol layers."""
        return lambda ctx: self.current_leader


class HeartbeatOmegaProcess(ProtocolStack):
    """A standalone process running only the heartbeat Omega layer.

    Its application outputs are ``("leader", pid)`` events on each change,
    so run records expose the emulated Omega output history.
    """

    def __init__(self, **kwargs: Any) -> None:
        super().__init__([HeartbeatOmegaLayer(**kwargs)])

    @property
    def omega_layer(self) -> HeartbeatOmegaLayer:
        layer = self.layers[0]
        assert isinstance(layer, HeartbeatOmegaLayer)
        return layer


class _TopEcho(Layer):
    """Internal helper: forwards lower events to the application output."""

    name = "echo"

    def on_lower_event(self, ctx: LayerContext, event: Any) -> None:
        ctx.output(event)


def heartbeat_omega_process(**kwargs: Any) -> Process:
    """Convenience constructor mirroring :class:`HeartbeatOmegaProcess`."""
    return HeartbeatOmegaProcess(**kwargs)
