"""``ProtocolStack``'s dispatch against the one it replaced.

A stack binds one ``LayerContext`` per layer to the step context it is
handed and reuses them while that context stays the same; timeouts go only
to layers that override ``on_timeout``; the pending queue carries bound
handlers. On the C tick loop a stack hands over its dispatch plan and the
loop does the framing, the timeout fan-out and the pending check itself.
``tests.helpers.ReferenceStack`` keeps the earlier dispatch (a fresh
context per dispatch, every layer offered every timeout; it overrides
``on_message`` and ``on_timeout``, so the C loop calls those), and every
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
from repro.sim._compiled import ckernel
from repro.sim.context import Context
from repro.sim.kernel import HAS_COMPILED
from repro.sim.replay import run_digest
from repro.sim.stack import LayerContext
from repro.workload import WorkloadSpec, workload_sim
from tests.helpers import ReferenceStack

SPEC = WorkloadSpec(clients=3, ops_per_client=25, mean_gap=24, seed=7)


def _outcome(sim):
    return run_digest(sim), dict(sim.run.output_history)


def assert_dispatch(sim, planned):
    """With the extension built, ``sim`` ran on the C loop, and its stacks
    handed it a dispatch plan (``planned``) or none."""
    if not HAS_COMPILED:
        return
    assert sim.fused_path == "c-loop"
    stacks = [p for p in sim.processes if isinstance(p, ProtocolStack)]
    assert stacks
    for stack in stacks:
        assert (stack._dispatch_plan(sim._ctx) is not None) is planned


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
    assert_dispatch(sim, planned=True)
    monkeypatch.setattr(workload_scenario, "ProtocolStack", ReferenceStack)
    reference, reference_summary = cell()
    assert type(reference.processes[0]) is ReferenceStack
    assert_dispatch(reference, planned=False)
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
    assert_dispatch(sim, planned=True)
    monkeypatch.setattr(protocols, "ProtocolStack", ReferenceStack)
    reference = run_plan(spec)
    assert type(reference.processes[0]) is ReferenceStack
    assert_dispatch(reference, planned=False)
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
    assert_dispatch(sim, planned=True)
    assert _outcome(sim) == _outcome(reference)
    assert sim.run == reference.run
    assert sim.run.log == reference.run.log and sim.run.log


class CountingStack(ProtocolStack):
    """Overrides ``on_message`` and ``on_timeout``, so it hands the C loop
    no plan: the loop must call these, once per message and timeout."""

    def __init__(self, layers):
        super().__init__(layers)
        self.messages = self.timeouts = 0

    def on_message(self, ctx, sender, payload):
        self.messages += 1
        super().on_message(ctx, sender, payload)

    def on_timeout(self, ctx):
        self.timeouts += 1
        super().on_timeout(ctx)


@pytest.mark.parametrize("kernel", ["compiled-loop", "packed"])
def test_an_overriding_subclass_is_called_as_written(kernel):
    if kernel == "compiled-loop" and not HAS_COMPILED:
        pytest.skip("C loop not built")

    def run(stack_cls):
        sim = Simulation(
            [stack_cls([Beat(), Relay(), Top()]) for __ in range(3)],
            delay_model=FixedDelay(2), timeout_interval=3, kernel=kernel,
            record="metrics",
        )
        for k in range(6):
            sim.add_input(k % 3, 4 * k, ("job", k))
        sim.run_until(120)
        return sim

    sim, counted = run(ProtocolStack), run(CountingStack)
    assert _outcome(sim) == _outcome(counted)
    metrics = counted.metrics
    assert sum(p.messages for p in counted.processes) == metrics.messages_received > 0
    assert sum(p.timeouts for p in counted.processes) == metrics.timeouts_fired > 0


def test_a_stack_whose_instance_replaces_a_handler_hands_no_plan():
    stack = ProtocolStack([Beat(), Top()])
    ctx = Context(pid=0, n=1, time=0)
    assert stack._dispatch_plan(ctx) is not None
    stack.on_timeout = stack.on_start
    assert stack._dispatch_plan(ctx) is None


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


#: pairs led by something that names no layer of a two-layer stack: each
#: reaches the top layer whole
UNFRAMED = [MessageId(0, 7), (True, "bool"), (-1, "below"), (2, "past"),
            (2**70, "huge"), (0, "three", "long")]


@pytest.mark.parametrize("kernel", ["compiled-loop", "packed"])
def test_only_a_plain_int_led_pair_is_framed(kernel):
    # MessageId(0, 7) has the framing's shape, but a tuple subclass is an
    # application payload: it reaches the top layer whole, as does a pair
    # led by a bool or by an int out of the layers' range. A plain
    # (index, payload) pair still reaches layer index.
    if kernel == "compiled-loop" and not HAS_COMPILED:
        pytest.skip("C loop not built")
    bottom, top = Inbox(), Inbox()
    sim = Simulation(
        [RawSender(UNFRAMED + [(0, "framed"), (1, "top")]),
         ProtocolStack([bottom, top])],
        kernel=kernel, message_batch=8,
    )
    sim.run_until(10)
    assert bottom.received == [(0, "framed")]
    assert top.received == [(0, payload) for payload in UNFRAMED] + [(0, "top")]
    assert type(top.received[0][1]) is MessageId


class OmegaReader(Layer):
    pass


#: (fd_value, what LayerContext.omega reads or raises)
OMEGA_SAMPLES = {
    "int": (2, 2),
    "composite": ({"omega": 1, "sigma": frozenset({0, 1})}, 1),
    "bool": (True, True),
    "no-detector": (None, ValueError),
    "composite-without-omega": ({"sigma": frozenset({0})}, KeyError),
}


@pytest.mark.skipif(ckernel is None, reason="C extension not built")
@pytest.mark.parametrize("name", sorted(OMEGA_SAMPLES))
def test_the_c_omega_read_is_layer_context_omega(name):
    fd_value, expected = OMEGA_SAMPLES[name]
    assert OmegaReader._omega is ckernel.layer_omega
    ctx = LayerContext(
        ProtocolStack([OmegaReader()]), Context(0, 3, 5, fd_value), 0
    )
    if isinstance(expected, type):
        errors = []
        for read in (LayerContext.omega, ckernel.layer_omega):
            with pytest.raises(expected) as raised:
                read(ctx)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]
    else:
        assert ckernel.layer_omega(ctx) == LayerContext.omega(ctx) == expected
        assert type(ckernel.layer_omega(ctx)) is type(expected)


def test_a_layer_with_an_omega_source_reads_it():
    def source(ctx):
        return 7

    layer = OmegaReader()
    layer._set_omega_source(source)
    assert layer._omega is source
    assert "_omega" not in vars(OmegaReader())


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
