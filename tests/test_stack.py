"""Unit tests for protocol-stack composition."""

import pytest

from repro.sim import FixedDelay, Layer, ProtocolStack, Simulation
from repro.sim.process import Process
from repro.sim.errors import ConfigurationError, ProtocolError


class Lower(Layer):
    name = "lower"

    def __init__(self):
        self.calls = []
        self.peer_messages = []

    def on_call(self, ctx, request):
        self.calls.append(request)
        ctx.emit_upper(("ack", request))

    def on_message(self, ctx, sender, payload):
        self.peer_messages.append((sender, payload))

    def on_timeout(self, ctx):
        ctx.send_all(("lower-beat", ctx.pid), include_self=False)


class Upper(Layer):
    name = "upper"

    def __init__(self):
        self.events = []
        self.peer_messages = []

    def on_input(self, ctx, value):
        ctx.call_lower(("do", value))
        ctx.send_all(("upper-cast", value), include_self=False)

    def on_lower_event(self, ctx, event):
        self.events.append(event)
        ctx.output(("saw", event))

    def on_message(self, ctx, sender, payload):
        self.peer_messages.append((sender, payload))


def build_sim(n=2):
    procs = [ProtocolStack([Lower(), Upper()]) for _ in range(n)]
    sim = Simulation(procs, delay_model=FixedDelay(1), timeout_interval=4)
    return sim, procs


class TestDispatch:
    def test_input_goes_to_top_layer_and_calls_descend(self):
        sim, procs = build_sim()
        sim.add_input(0, 0, "job")
        sim.run_until(4)
        assert procs[0].layer("lower").calls == [("do", "job")]

    def test_lower_events_ascend_and_top_events_become_outputs(self):
        sim, procs = build_sim()
        sim.add_input(0, 0, "job")
        sim.run_until(4)
        assert procs[0].layer("upper").events == [("ack", ("do", "job"))]
        assert sim.run.tagged_outputs(0, "saw") == [(0, ((("ack", ("do", "job"))),))]

    def test_messages_routed_by_layer(self):
        sim, procs = build_sim()
        sim.add_input(0, 0, "x")  # upper broadcasts upper-cast
        sim.run_until(20)  # lower beats on timers
        upper_1 = procs[1].layer("upper")
        lower_1 = procs[1].layer("lower")
        assert ("upper-cast", "x") in [p for __, p in upper_1.peer_messages]
        assert all(p[0] == "lower-beat" for __, p in lower_1.peer_messages)
        assert lower_1.peer_messages, "lower layer heard no beats"

    def test_layer_lookup_by_name_index_and_type(self):
        stack = ProtocolStack([Lower(), Upper()])
        assert stack.layer(0) is stack.bottom
        assert stack.layer("upper") is stack.top
        assert isinstance(stack.layer(Lower), Lower)
        with pytest.raises(KeyError):
            stack.layer("nonexistent")

    def test_empty_stack_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolStack([])

    def test_unframed_message_routed_to_top_layer(self):
        # Non-stack peers (e.g. client processes) send unframed payloads;
        # those are delivered to the outward-facing top layer.
        sim, procs = build_sim()
        sim.network.send_packed(1, 0, "not-a-stack-frame", 0)
        sim.run_until(4)
        assert (1, "not-a-stack-frame") in procs[0].layer("upper").peer_messages
        assert procs[0].layer("lower").peer_messages == []

    def test_bottom_layer_cannot_call_lower(self):
        class BadLayer(Layer):
            def on_input(self, ctx, value):
                ctx.call_lower("oops")

        procs = [ProtocolStack([BadLayer()])]
        sim = Simulation(procs, timeout_interval=5)
        sim.add_input(0, 0, "x")
        with pytest.raises(ProtocolError):
            sim.run_until(3)

    def test_default_layer_rejects_unexpected_calls(self):
        class Passive(Layer):
            pass

        class Caller(Layer):
            def on_input(self, ctx, value):
                ctx.call_lower("anything")

        procs = [ProtocolStack([Passive(), Caller()])]
        sim = Simulation(procs, timeout_interval=5)
        sim.add_input(0, 0, "x")
        with pytest.raises(ProtocolError):
            sim.run_until(3)


class TestTimeoutsAndStart:
    def test_all_layers_get_timeouts(self):
        beats = []

        class Beater(Layer):
            def __init__(self, tag):
                self.tag = tag

            def on_timeout(self, ctx):
                beats.append(self.tag)

        procs = [ProtocolStack([Beater("a"), Beater("b")])]
        sim = Simulation(procs, timeout_interval=3)
        sim.run_until(10)
        assert "a" in beats and "b" in beats

    def test_on_start_called_once_per_layer(self):
        starts = []

        class Starter(Layer):
            def on_start(self, ctx):
                starts.append(ctx.pid)

        procs = [ProtocolStack([Starter(), Starter()]) for _ in range(2)]
        sim = Simulation(procs, timeout_interval=50)
        sim.run_until(20)
        assert sorted(starts) == [0, 0, 1, 1]


class TestChainedStacks:
    def test_three_layer_relay(self):
        class Relay(Layer):
            def on_call(self, ctx, request):
                ctx.call_lower(("wrapped", request))

            def on_lower_event(self, ctx, event):
                ctx.emit_upper(("unwrapped", event))

        class Echo(Layer):
            def on_call(self, ctx, request):
                ctx.emit_upper(("echo", request))

        class App(Layer):
            def on_input(self, ctx, value):
                ctx.call_lower(value)

            def on_lower_event(self, ctx, event):
                ctx.output(event)

        procs = [ProtocolStack([Echo(), Relay(), App()])]
        sim = Simulation(procs, timeout_interval=50)
        sim.add_input(0, 0, "ping")
        sim.run_until(3)
        outputs = [v for __, v in sim.run.outputs_of(0)]
        assert outputs == [("unwrapped", ("echo", ("wrapped", "ping")))]


class GroupProbe(Layer):
    """Broadcasts once at start and records the membership view it sees."""

    name = "group-probe"

    def __init__(self):
        self.seen_n = None
        self.received = []

    def on_start(self, ctx):
        self.seen_n = ctx.n
        ctx.send_all(("probe", ctx.pid), include_self=False)

    def on_message(self, ctx, sender, payload):
        self.received.append((sender, payload))


class Bystander(Process):
    """A plain process outside the protocol group (records raw messages)."""

    def __init__(self):
        self.received = []

    def on_message(self, ctx, sender, payload):
        self.received.append((sender, payload))


class TestProtocolGroup:
    """group_size: a stack's protocol covers a pid prefix, not the whole sim."""

    def build(self, replicas=2, extras=1):
        procs = [
            ProtocolStack([GroupProbe()], group_size=replicas)
            for _ in range(replicas)
        ] + [Bystander() for _ in range(extras)]
        sim = Simulation(procs, delay_model=FixedDelay(1), timeout_interval=50)
        return sim, procs

    def test_layers_see_group_size_as_n(self):
        sim, procs = self.build(replicas=2, extras=2)
        sim.run_until(20)
        assert [procs[p].layer("group-probe").seen_n for p in (0, 1)] == [2, 2]

    def test_broadcast_stays_inside_the_group(self):
        sim, procs = self.build(replicas=2, extras=2)
        sim.run_until(20)
        for pid in (0, 1):
            peers = {s for s, __ in procs[pid].layer("group-probe").received}
            assert peers == {1 - pid}
        assert procs[2].received == [] and procs[3].received == []

    def test_without_group_broadcast_reaches_everyone(self):
        procs = [ProtocolStack([GroupProbe()]) for _ in range(2)] + [Bystander()]
        sim = Simulation(procs, delay_model=FixedDelay(1), timeout_interval=50)
        sim.run_until(20)
        assert procs[0].layer("group-probe").seen_n == 3
        assert len(procs[2].received) == 2  # framed probes from both members

    def test_group_size_validation(self):
        with pytest.raises(ConfigurationError):
            ProtocolStack([GroupProbe()], group_size=0)
        # A stack attached outside its own group is a configuration error.
        procs = [
            ProtocolStack([GroupProbe()], group_size=1),
            ProtocolStack([GroupProbe()], group_size=1),
        ]
        with pytest.raises(ConfigurationError):
            Simulation(procs, delay_model=FixedDelay(1), timeout_interval=50)

    def test_group_larger_than_simulation_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulation(
                [ProtocolStack([GroupProbe()], group_size=2)],
                delay_model=FixedDelay(1),
                timeout_interval=50,
            )
