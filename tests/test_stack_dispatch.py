"""``ProtocolStack``'s dispatch against the one it replaced.

A stack binds one ``LayerContext`` per layer to the step context it is
handed and reuses them while that context stays the same; timeouts go only
to layers that override ``on_timeout``; the pending queue carries bound
handlers. ``tests.helpers.ReferenceStack`` keeps the earlier dispatch (a
fresh context per dispatch, every layer offered every timeout), and every
run below must come out the same under both: the serving stacks of the
workload cells (with a protocol group), EXP-1's three broadcast protocols,
and a stack whose middle layer keeps the no-op ``on_timeout``.

The cached contexts must not leak into what a stack *is*: a frozen stack
(the CHT replay memo keys on its bytes) is its protocol state alone, and a
finished simulation is freed by reference counting, without the cyclic
collector.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.protocols as protocols
import repro.workload.scenario as workload_scenario
from repro.cht import ReplaySandbox
from repro.core import EcDriverLayer, EcUsingOmegaLayer
from repro.core.messages import MessageId
from repro.sim import (
    FixedDelay, Layer, Process, ProtocolStack, RunSpec, Simulation, run_plan,
)
from repro.sim.context import Context
from repro.sim.replay import run_digest
from repro.workload import WorkloadSpec, workload_sim
from tests.helpers import ReferenceStack

SPEC = WorkloadSpec(clients=3, ops_per_client=25, mean_gap=24, seed=7)


def _outcome(sim):
    return run_digest(sim), dict(sim.run.output_history)


@pytest.mark.parametrize("stack", ["etob", "ec", "paxos"])
def test_workload_cell_matches_the_reference_dispatch(monkeypatch, stack):
    def cell():
        sim, observer, horizon = workload_sim(
            SPEC, stack=stack, env="uniform", retry_after=300, record="outputs"
        )
        sim.run_until(horizon)
        return sim, observer.summary()

    sim, summary = cell()
    assert type(sim.processes[0]) is ProtocolStack
    monkeypatch.setattr(workload_scenario, "ProtocolStack", ReferenceStack)
    reference, reference_summary = cell()
    assert type(reference.processes[0]) is ReferenceStack
    assert _outcome(sim) == _outcome(reference)
    assert summary == reference_summary and summary.completed > 0


@pytest.mark.parametrize("protocol", ["etob", "tob-consensus", "tob-ct"])
def test_exp1_protocol_matches_the_reference_dispatch(monkeypatch, protocol):
    # EXP-1's n=3 cell: warm-up broadcasts, then spaced ones from non-leaders.
    delay, messages, n = 60, 6, 3
    start = 40 * delay
    broadcasts = [(0, 5, "warm-0"), (1, 9, "warm-1")] + [
        (1 + i % (n - 1), start + i * 8 * delay, f"msg-{i}") for i in range(messages)
    ]
    spec = RunSpec(
        n=n, duration=start + (messages + 12) * 8 * delay, protocol=protocol,
        inputs=tuple((p, t, ("broadcast", m)) for p, t, m in broadcasts),
        tau=0, links=FixedDelay(delay), timeout_interval=2, message_batch=4,
    )

    sim = run_plan(spec)
    monkeypatch.setattr(protocols, "ProtocolStack", ReferenceStack)
    reference = run_plan(spec)
    assert type(reference.processes[0]) is ReferenceStack
    assert _outcome(sim) == _outcome(reference)
    assert any(
        payload[0] == "deliver"
        for events in sim.run.output_history.values() for __, payload in events
    )


class Beat(Layer):
    """Bottom: beats to its peers on every timeout, answers calls upward."""

    name = "beat"

    def on_call(self, ctx, request):
        ctx.send_all(("req", request), include_self=False)
        ctx.emit_upper(("ack", request, ctx.time))

    def on_message(self, ctx, sender, payload):
        ctx.emit_upper(("heard", sender, payload))

    def on_timeout(self, ctx):
        ctx.send_all(("beat", ctx.pid, ctx.time), include_self=False)


class Relay(Layer):
    """Middle: relays calls down and events up; keeps the no-op timeout."""

    name = "relay"

    def on_call(self, ctx, request):
        ctx.call_lower(request)

    def on_lower_event(self, ctx, event):
        ctx.log(event[0])
        ctx.emit_upper(event)


class Top(Layer):
    """Top: turns inputs and its own timeouts into calls, events into outputs."""

    name = "top"

    def __init__(self):
        self.ticks = 0

    def on_input(self, ctx, value):
        ctx.call_lower(value)

    def on_lower_event(self, ctx, event):
        ctx.emit_upper(event)

    def on_timeout(self, ctx):
        self.ticks += 1
        if self.ticks % 3 == 0:
            ctx.call_lower(("tick", ctx.pid, self.ticks))


def test_middle_layer_without_timeout_matches_the_reference_dispatch():
    def run(stack_cls):
        sim = Simulation(
            [stack_cls([Beat(), Relay(), Top()]) for __ in range(3)],
            delay_model=FixedDelay(2), timeout_interval=3, record="full",
        )
        for k in range(6):
            sim.add_input(k % 3, 4 * k, ("job", k))
        sim.run_until(120)
        return sim

    sim, reference = run(ProtocolStack), run(ReferenceStack)
    assert sim.processes[0]._timeout_layers == (0, 2)
    assert _outcome(sim) == _outcome(reference)
    assert sim.run == reference.run
    assert sim.run.log == reference.run.log and sim.run.log


def ec_factory(proposal_fn):
    return ProtocolStack(
        [EcUsingOmegaLayer(), EcDriverLayer(proposal_fn, max_instances=2)]
    )


class Inbox(Layer):
    """Keeps what reaches it: ``(sender, payload)`` per message."""

    def __init__(self):
        self.received = []

    def on_message(self, ctx, sender, payload):
        self.received.append((sender, payload))


class RawSender(Process):
    """A non-stack peer: sends its payloads unframed to p1 at its start."""

    def __init__(self, payloads):
        self.payloads = payloads

    def on_start(self, ctx):
        for payload in self.payloads:
            ctx.send(1, payload)


def test_only_a_plain_int_led_pair_is_framed():
    # MessageId(0, 7) has the framing's shape, but a tuple subclass is an
    # application payload: it reaches the top layer whole. A plain
    # (index, payload) pair still reaches layer index.
    bottom, top = Inbox(), Inbox()
    sim = Simulation(
        [RawSender([MessageId(0, 7), (0, "framed")]), ProtocolStack([bottom, top])]
    )
    sim.run_until(10)
    assert bottom.received == [(0, "framed")]
    assert top.received == [(0, MessageId(0, 7))]
    assert type(top.received[0][1]) is MessageId


def test_a_stepped_stack_freezes_to_its_protocol_state():
    sandbox = ReplaySandbox(3, ec_factory)
    sandbox._inputs.table = {(pid, k): pid + k for pid in range(3) for k in (1, 2)}
    process = sandbox.thaw(sandbox._initial_automata[0])
    ctx = Context(pid=0, n=3, time=0, fd_value=0)
    process.on_start(ctx)
    process.on_timeout(ctx)
    assert process._base is ctx  # the contexts are bound and cached
    frozen = sandbox.freeze(process)
    # The same protocol state with nothing bound freezes to the same bytes,
    # and thaws into a stack that binds afresh.
    del process._base, process._contexts
    assert sandbox.freeze(process) == frozen
    fresh = sandbox.thaw(frozen)
    assert fresh._base is None
    assert sandbox.freeze(fresh) == frozen


def test_a_finished_simulation_is_freed_without_the_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        sim, __, horizon = workload_sim(
            SPEC, stack="paxos", env="uniform", retry_after=300
        )
        sim.run_until(horizon)
        stack = weakref.ref(sim.processes[0])
        assert stack()._base is sim._ctx
        del sim
        assert stack() is None
    finally:
        gc.enable()
