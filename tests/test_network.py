"""Unit tests for the network (the message buffer).

The delay-model tests check that the buffer schedules each message at
``send time + delay`` for the models of :mod:`repro.sim.envs`; the models'
own draws are pinned in ``test_envs.py``.

The merge layer (``_next_at`` / ``_pending`` / ``_counts``),
the scheduler's ``_local_event`` / ``_next_timeout`` cursors and its clock
``_clock`` are ``array('q')`` buffers the C loop reads and writes in place,
and the step context's three effect lists are emptied in place. The tests
at the end pin that this shared state is exact whenever Python is called,
that every exit of the C code releases the buffers it exported, and that
the context's lists are empty after every step on every leg.
"""

import copy
import pickle
from array import array
from collections import deque

import pytest

from repro.sim import (
    ConfigurationError,
    FailurePattern,
    FixedDelay,
    Layer,
    Process,
    ProtocolStack,
    SimObserver,
    Simulation,
    make_network,
    run_digest,
)
from repro.sim.context import Context
from repro.sim.envs import AgeGstDist, OneWayPartition, UniformDist
from repro.sim.kernel import HAS_COMPILED
from repro.sim.network import Network
from repro.sim.types import NEVER, NO_MESSAGE

from test_kernel import (
    BUILT_KERNELS,
    FAILURE_SITES,
    SITE_VISITS,
    Boom,
    Fuse,
    _failure_sim,
    needs_c_loop,
)


def arrivals(model, sender, receiver, times):
    """Delivery times the buffer assigns to one message sent at each of ``times``."""
    net = Network(max(sender, receiver) + 1, model)
    return [net.send(sender, receiver, "m", t).deliver_at for t in times]


class TestDelayModels:
    def test_fixed_delay(self):
        assert FixedDelay(3).delay(0, 1, 100) == 3
        assert arrivals(FixedDelay(3), 0, 1, [100]) == [103]

    def test_fixed_delay_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            FixedDelay(0)

    def test_uniform_delay_in_bounds_and_deterministic(self):
        a = arrivals(UniformDist(2, 9, seed=5), 0, 1, range(50))
        b = arrivals(UniformDist(2, 9, seed=5), 0, 1, range(50))
        assert a == b
        assert all(2 <= at - t <= 9 for t, at in enumerate(a))

    def test_gst_delay_bounded_after_gst(self):
        model = AgeGstDist(gst=100, pre_max=40, post_delay=3, seed=1)
        times = range(100, 200)
        assert all(
            at - t <= 3 for t, at in zip(times, arrivals(model, 0, 1, times))
        )

    def test_gst_delay_pre_messages_arrive_soon_after_gst(self):
        model = AgeGstDist(gst=100, pre_max=1000, post_delay=3, seed=1)
        assert all(at <= 103 for at in arrivals(model, 0, 1, range(0, 100, 7)))


class TestPartitionedDelay:
    """A symmetric split of {0, 1} from {2, 3}, as one ``OneWayPartition``."""

    def _model(self, end=50):
        edges = tuple(
            (a, b)
            for side, other in (({0, 1}, {2, 3}), ({2, 3}, {0, 1}))
            for a in sorted(side)
            for b in sorted(other)
        )
        return OneWayPartition(FixedDelay(2), edges=edges, start=10, end=end)

    def test_within_group_unaffected(self):
        assert self._model().delay(0, 1, 20) == 2
        assert arrivals(self._model(), 2, 3, [20]) == [22]

    def test_cross_group_held_until_heal(self):
        model = self._model(end=50)
        # Sent at t=20 across the cut: arrives at 50 + base = 52 => delay 32.
        assert model.delay(0, 2, 20) == 32
        assert arrivals(model, 3, 1, [20]) == [52]

    def test_outside_window_unaffected(self):
        assert self._model(end=50).delay(0, 2, 60) == 2
        assert arrivals(self._model(end=50), 0, 2, [5, 60]) == [7, 62]

    def test_permanent_partition_never_delivers(self):
        model = OneWayPartition(FixedDelay(1), edges=((0, 1),), start=0, end=None)
        assert model.delay(0, 1, 5) + 5 == NEVER
        net = Network(2, model)
        net.send(0, 1, "m", 5)
        assert net.next_delivery_time(1) == NEVER
        assert net.pop_deliverable(1, 10**9) is None


class TestNetwork:
    def test_send_then_deliver_in_time_order(self):
        net = Network(2, FixedDelay(2))
        net.send(0, 1, "a", 0)
        net.send(0, 1, "b", 1)
        assert net.pop_deliverable(1, 1) is None
        first = net.pop_deliverable(1, 2)
        assert first is not None and first.payload == "a"
        second = net.pop_deliverable(1, 3)
        assert second is not None and second.payload == "b"

    def test_send_order_breaks_ties(self):
        net = Network(2, FixedDelay(1))
        net.send(0, 1, "x", 0)
        net.send(0, 1, "y", 0)
        assert net.pop_deliverable(1, 1).payload == "x"
        assert net.pop_deliverable(1, 1).payload == "y"

    def test_send_all_includes_self_by_default(self):
        net = Network(3, FixedDelay(1))
        envelopes = net.send_all(0, "m", 0)
        assert {e.receiver for e in envelopes} == {0, 1, 2}

    def test_send_all_can_exclude_self(self):
        net = Network(3, FixedDelay(1))
        envelopes = net.send_all(0, "m", 0, include_self=False)
        assert {e.receiver for e in envelopes} == {1, 2}

    def test_in_transit_counts(self):
        net = Network(3, FixedDelay(5))
        net.send_all(1, "m", 0)
        assert net.in_transit() == 3
        assert net.in_transit(receiver=0) == 1
        assert net.pending_for({0, 2}) == 2

    def test_peek_does_not_consume(self):
        net = Network(2, FixedDelay(1))
        net.send(0, 1, "m", 0)
        assert net.peek_deliverable(1, 1).payload == "m"
        assert net.peek_deliverable(1, 1).payload == "m"
        assert net.pop_deliverable(1, 1).payload == "m"
        assert net.peek_deliverable(1, 1) is None

    def test_earliest_pending(self):
        net = Network(3, FixedDelay(4))
        assert net.earliest_pending({0, 1, 2}) is None
        net.send(0, 2, "m", 10)
        assert net.earliest_pending({2}) == 14

    def test_counts_track_sends_and_deliveries(self):
        net = Network(2, FixedDelay(1))
        net.send(0, 1, "m", 0)
        net.pop_deliverable(1, 5)
        assert net.sent_count == 1
        assert net.delivered_count == 1


class TestDeliveryTimeBound:
    """Every rung refuses a delivery time at or past ``NO_MESSAGE`` — what
    an empty queue's cursor reads — with one ``OverflowError``, before
    anything queues."""

    T = 5

    @staticmethod
    def _refusal(kernel, delay_model, send):
        net = make_network(3, delay_model, kernel=kernel)
        before = [net.next_delivery_time(r) for r in range(3)]
        with pytest.raises(OverflowError) as refused:
            send(net)
        assert [net.next_delivery_time(r) for r in range(3)] == before
        assert (net.sent_count, net.in_transit()) == (0, 0)
        return str(refused.value)

    @pytest.mark.parametrize("kernel", BUILT_KERNELS)
    def test_the_last_representable_delivery_time_is_accepted(self, kernel):
        net = make_network(3, FixedDelay(NO_MESSAGE - self.T - 1), kernel=kernel)
        net.send_packed(0, 1, "m", self.T)
        assert net.send_all_packed(0, "m", self.T) == 3
        assert net.next_delivery_time(1) == NO_MESSAGE - 1
        assert net.in_transit(1) == 2
        assert net.earliest_pending(range(3)) >= NEVER  # never deliverable

    def test_one_past_it_is_refused_alike_on_every_rung(self):
        model = FixedDelay(NO_MESSAGE - self.T)
        messages = {
            (kernel, name): self._refusal(kernel, model, send)
            for kernel in BUILT_KERNELS
            for name, send in (
                ("send", lambda net: net.send_packed(0, 1, "m", self.T)),
                ("send_all", lambda net: net.send_all_packed(0, "m", self.T)),
            )
        }
        assert set(messages.values()) == {
            f"delivery time {self.T} + {NO_MESSAGE - self.T} reaches "
            f"NO_MESSAGE (2**63 - 1)"
        }

    @pytest.mark.parametrize("kernel", BUILT_KERNELS)
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_a_broadcast_with_one_refused_time_queues_nothing(
        self, kernel, vectorized
    ):
        class LastTooLate:
            def delay(self, sender, receiver, t):
                return 2**63 if receiver == 2 else 1

        model = LastTooLate()
        if vectorized:
            model.delay_profile = lambda sender, t, receivers: [
                model.delay(sender, r, t) for r in receivers
            ]
        self._refusal(kernel, model, lambda net: net.send_all_packed(0, "m", 1))


class Chatter(Process):
    """Broadcasts on every timeout and acknowledges every beat until tick
    ``QUIET``, so the run then drains; an input is passed on once."""

    QUIET = 300

    def on_timeout(self, ctx):
        if ctx.time < self.QUIET:
            ctx.send_all(("beat", ctx.pid), include_self=ctx.pid % 2 == 0)

    def on_message(self, ctx, sender, payload):
        if payload[0] == "beat" and ctx.time < self.QUIET:
            ctx.send(sender, ("ack", ctx.pid))

    def on_input(self, ctx, value):
        ctx.send((ctx.pid + 1) % ctx.n, ("input", value))


class MergeLayerSnapshots(SimObserver):
    """At every step that does work, the merge layer, the scheduler's
    cursors and its clock as Python reads them. (The naive stepper also
    executes idle ticks, which the event engine skips, so those and the step
    indices are left out.)"""

    def __init__(self) -> None:
        self.seen: list[tuple] = []

    def on_step_raw(
        self, sim, index, t, pid, sender, payload, send_time, fd_value,
        inputs, outputs, timeout_fired, sent, received,
    ):
        if not (inputs or outputs or timeout_fired or sent or received):
            return
        net = sim.network
        self.seen.append((
            t, pid,
            [net.in_transit(r) for r in range(net.n)],
            [net.next_delivery_time(r) for r in range(net.n)],
            net.sent_count, net.delivered_count,
            list(sim._local_event), list(sim._next_timeout),
            sim.time, sim.last_live_tick,
        ))


class ClockReader:
    """Records the clock as Python reads it at every call made into this
    object in the middle of a step."""

    def __init__(self) -> None:
        self.sim: Simulation | None = None
        self.seen: list[tuple] = []

    def note(self, *call) -> None:
        sim = self.sim
        self.seen.append((*call, sim.time, sim.last_live_tick, sim._step_index))


class ClockedDelay(ClockReader):
    """A delay model that reads the clock at every draw."""

    def __init__(self, inner) -> None:
        super().__init__()
        self.inner = inner

    def delay(self, sender, receiver, t):
        self.note(sender, receiver, t)
        return self.inner.delay(sender, receiver, t)


class ClockedDetector(ClockReader):
    """A detector history that reads the clock at every query."""

    def query(self, pid, t):
        self.note(pid, t)
        return (pid + t // 50) % 4


#: the C loop, the Python fused loop / generic engine on the Python pool,
#: and the naive stepper on the legacy network
SNAPSHOT_LEGS = [
    *([("compiled-loop", "event")] if HAS_COMPILED else []),
    ("packed", "event"),
    ("legacy", "naive"),
]


def _chatter_sim(kernel, engine, scheduling) -> Simulation:
    spy = MergeLayerSnapshots()
    # 0 -> 1 is cut for good from t=40: those messages queue at NEVER
    delay = ClockedDelay(OneWayPartition(FixedDelay(2), edges=((0, 1),), start=40))
    detector = ClockedDetector()
    sim = Simulation(
        [Chatter() for __ in range(4)],
        delay_model=delay,
        detector=detector,
        failure_pattern=FailurePattern(4, {3: 150}),
        timeout_interval=[7, 9, 11, 13],
        scheduling=scheduling,
        seed=4,
        message_batch=2,
        kernel=kernel,
        engine=engine,
        record="metrics",
        observers=[spy],
    )
    for k in range(12):
        sim.add_input(k % 4, 13 * k + 1, k)
    delay.sim = detector.sim = sim
    return sim


def _chatter_run(sim: Simulation) -> None:
    sim.run_until(120)
    sim.run_until_quiescent(grace=2)
    sim.run_until(sim.time + 50)


class TestSharedStateIsExactWheneverPythonIsCalled:
    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    def test_every_step_sees_the_same_merge_layer_on_every_leg(
        self, scheduling
    ):
        seen = {}
        for kernel, engine in SNAPSHOT_LEGS:
            sim = _chatter_sim(kernel, engine, scheduling)
            if kernel == "compiled-loop":
                assert sim.fused_path == "c-loop"
            _chatter_run(sim)
            spy = sim._step_observers[-1]
            seen[kernel] = (spy.seen, sim.time, run_digest(sim))
            # the run crossed the crash, the cut link and the drain
            net = sim.network
            head = net.earliest_pending(sim.alive())
            assert head is None or head >= NEVER
            assert net.next_delivery_time(1) == NEVER
            assert len({step[5] for step in spy.seen}) > 10
        first = seen[SNAPSHOT_LEGS[0][0]]
        for kernel, __ in SNAPSHOT_LEGS[1:]:
            assert seen[kernel] == first, kernel

    @needs_c_loop
    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    def test_the_clock_is_exact_at_every_call_in_mid_step(self, scheduling):
        # The delay model and the detector are called by the C loop in the
        # middle of a step; the generic engine (random) and the Python fused
        # loop (round-robin) make the same calls on packed.
        seen = {}
        for kernel in ("compiled-loop", "packed"):
            sim = _chatter_sim(kernel, "event", scheduling)
            _chatter_run(sim)
            delays, queries = sim.network.delay_model.seen, sim.detector.seen
            # a call in the step at tick t reads time t + 1, last live t
            for *call, time, last_live, __ in delays + queries:
                assert (time, last_live) == (call[-1] + 1, call[-1])
            assert len({index for *__, index in queries}) == len(queries)
            seen[kernel] = delays, queries
        assert seen["compiled-loop"] == seen["packed"]

    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    @pytest.mark.parametrize("kernel,engine", SNAPSHOT_LEGS)
    def test_a_copy_between_run_calls_continues_alike(
        self, kernel, engine, scheduling
    ):
        whole = _chatter_sim(kernel, engine, scheduling)
        _chatter_run(whole)
        sim = _chatter_sim(kernel, engine, scheduling)
        sim.run_until(60)
        for clone in (lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy):
            resumed = clone(sim)
            assert isinstance(resumed.network._next_at, array)
            assert isinstance(resumed._local_event, array)
            assert isinstance(resumed._clock, array)
            _chatter_run(resumed)
            assert run_digest(resumed) == run_digest(whole)
            assert (
                resumed._step_observers[-1].seen == whole._step_observers[-1].seen
            )
            assert resumed.detector.seen == whole.detector.seen
        _chatter_run(sim)
        assert run_digest(sim) == run_digest(whole)


class Effects(Process):
    """Sends, outputs and logs in the same step: on every timeout, and on
    every ``"next"`` message."""

    def on_timeout(self, ctx):
        ctx.send_all(("all", ctx.time))
        ctx.send((ctx.pid + 1) % ctx.n, ("next", ctx.time))
        ctx.output(("out", ctx.pid, ctx.time))
        ctx.log(("log", ctx.pid, ctx.time))

    def on_message(self, ctx, sender, payload):
        if payload[0] == "next":
            ctx.output(("got", sender, payload[1]))
            ctx.log(("got", sender))
            ctx.send(sender, ("back", ctx.time))


class EmptyBuffersSpy(SimObserver):
    """Asserts at every step that the context's three buffers are empty, and
    keeps every logged event."""

    def __init__(self) -> None:
        self.steps = 0
        self.logged: list[tuple] = []

    def on_step_raw(self, sim, *fields):
        ctx = sim._ctx
        assert ctx._outbox == [] and ctx._outputs == [] and ctx._log == []
        self.steps += 1

    def on_log(self, sim, t, pid, event):
        self.logged.append((t, pid, event))


class TestTheContextBuffersAreEmptiedInPlace:
    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    def test_every_leg_leaves_them_empty_after_every_step(self, scheduling):
        seen = {}
        for kernel, engine in SNAPSHOT_LEGS:
            spy = EmptyBuffersSpy()
            sim = Simulation(
                [Effects() for __ in range(3)],
                delay_model=UniformDist(1, 4),
                failure_pattern=FailurePattern(3, {2: 200}),
                timeout_interval=[5, 7, 9],
                scheduling=scheduling,
                seed=3,
                message_batch=2,
                kernel=kernel,
                engine=engine,
                record="outputs",
                observers=[spy],
            )
            if kernel == "compiled-loop":
                assert sim.fused_path == "c-loop"
            ctx = sim._ctx
            buffers = (ctx._outbox, ctx._outputs, ctx._log)
            sim.run_until(300)
            assert spy.steps > 100
            # the same three lists, on the C loop as on the Python loops
            assert all(
                now is before for now, before in
                zip((ctx._outbox, ctx._outputs, ctx._log), buffers)
            )
            seen[kernel] = (run_digest(sim), spy.logged)
        first = seen[SNAPSHOT_LEGS[0][0]]
        assert first[1]
        for kernel, __ in SNAPSHOT_LEGS[1:]:
            assert seen[kernel] == first, kernel


def assert_buffers_released(sim: Simulation) -> None:
    """No buffer of the merge layer, the cursors or the clock is still
    exported: an exported array refuses to resize with ``BufferError``."""
    for arr in (
        sim._local_event, sim._next_timeout, sim._clock, sim.network._next_at,
        sim.network._pending, sim.network._counts,
    ):
        arr.append(0)
        arr.pop()


@needs_c_loop
class TestEveryCExitReleasesItsBuffers:
    def test_after_a_normal_run(self):
        sim = _chatter_sim("compiled-loop", "event", "round_robin")
        sim.run_until(200)
        assert sim.metrics.fused_path == "c-loop"
        assert_buffers_released(sim)

    @pytest.mark.parametrize("site", FAILURE_SITES)
    def test_after_a_raise_from_each_site(self, site):
        fuse = Fuse()
        sim = _failure_sim("compiled-loop", fuse, site=site)
        assert sim.fused_path == "c-loop"
        fuse.arm(site, SITE_VISITS.get(site, 20) - 1)
        with pytest.raises(Boom):
            sim.run_until(100_000)
        assert sim.failed is fuse.raised
        assert_buffers_released(sim)

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_after_a_raising_delay_model_in_a_broadcast(self, vectorized):
        fuse = Fuse()
        sim = _failure_sim(
            "compiled-loop", fuse, site="delay_profile" if vectorized else "delay"
        )
        fuse.arm("delay_profile" if vectorized else "delay", 0)
        with pytest.raises(Boom):
            sim.network.send_all_packed(0, "m", 0)
        assert sim.network.in_transit() == 0
        assert_buffers_released(sim)

    @pytest.mark.parametrize(
        "owner,name",
        [("network", name) for name in ("_next_at", "_pending", "_counts")]
        + [("sim", "_local_event"), ("sim", "_next_timeout"), ("sim", "_clock")],
    )
    @pytest.mark.parametrize("bad", ["list", "short", "wide-typecode"])
    def test_a_foreign_buffer_is_refused_by_name(self, owner, name, bad):
        sim = _chatter_sim("compiled-loop", "event", "round_robin")
        target = sim.network if owner == "network" else sim
        good = getattr(target, name)
        setattr(target, name, {
            "list": list(good),
            "short": good[:-1],
            "wide-typecode": array("d", good),
        }[bad])
        with pytest.raises(TypeError, match=f"{name} must be an array"):
            sim.run_until(10)
        setattr(target, name, good)
        assert_buffers_released(sim)

    @pytest.mark.parametrize("name", ["_outbox", "_outputs", "_log"])
    def test_a_context_buffer_that_is_not_a_list_is_refused_by_name(self, name):
        sim = _chatter_sim("compiled-loop", "event", "round_robin")
        good = getattr(sim._ctx, name)
        setattr(sim._ctx, name, tuple(good))
        with pytest.raises(TypeError, match=f"{name} must be a list"):
            sim.run_until(10)
        setattr(sim._ctx, name, good)
        assert_buffers_released(sim)

    @pytest.mark.parametrize("name", ["pid", "time", "fd_value"])
    def test_a_step_fact_that_is_not_a_plain_slot_is_refused_by_name(self, name):
        # The C loop stores pid, time and fd_value straight into the
        # context's slots; a subclass that turns one into a property must
        # not be written behind its back.
        class Shadowed(Context):
            pass

        setattr(Shadowed, name, property(lambda self: 0, lambda self, value: None))
        sim = _chatter_sim("compiled-loop", "event", "round_robin")
        sim._ctx = Shadowed(pid=0, n=sim.n, time=0)
        with pytest.raises(TypeError, match=f"context's {name} must be a plain slot"):
            sim.run_until(10)
        assert_buffers_released(sim)

    def test_a_context_without_a_step_fact_is_refused_by_name(self):
        class Bare:
            __slots__ = ("pid", "n", "time", "_outbox", "_outputs", "_log")

        sim = _chatter_sim("compiled-loop", "event", "round_robin")
        bare = sim._ctx = Bare()
        bare._outbox, bare._outputs, bare._log = [], [], []
        with pytest.raises(TypeError, match="context's fd_value must be a plain slot"):
            sim.run_until(10)
        assert_buffers_released(sim)

    @pytest.mark.parametrize(
        "settle,error",
        [([0, None], TypeError), ((0,), TypeError), ((2**64, None), OverflowError)],
        ids=["list", "short", "past-int64"],
    )
    def test_a_settle_point_that_is_not_an_int64_pair_is_refused(self, settle, error):
        sim = _chatter_sim("compiled-loop", "event", "round_robin")
        sim._fd_settle = settle
        with pytest.raises(error):
            sim.run_until(10)
        assert_buffers_released(sim)


class Junk(Chatter):
    """Its first timeout leaves what a handler may not: an outbox entry
    that is not a ``(receiver, payload)`` pair, or a malformed head on its
    own input queue."""

    def __init__(self, what: str) -> None:
        self.what = what
        self.sim = None

    def on_timeout(self, ctx):
        if self.what == "outbox":
            ctx._outbox.append("junk")
        else:
            self.sim._inputs[ctx.pid].insert(0, ("junk",))


def _delete(owner: str, name: str):
    def corrupt(sim):
        delattr(sim if owner == "sim" else getattr(sim, owner), name)
    return corrupt


def _set(owner: str, name: str, value):
    def corrupt(sim):
        target = sim
        for part in owner.split(".")[1:]:
            target = getattr(target, part)
        setattr(target, name, value)
    return corrupt


def _set_crash_times(*value):
    """A failure pattern whose ``crash_times`` is ``value`` (none given:
    a pattern without it)."""
    def corrupt(sim):
        sim.failure_pattern = type("Pattern", (), dict(crash_times=value[0])
                                   if value else {})()
    return corrupt


def _queue_head(item):
    def corrupt(sim):
        sim._inputs[0][:] = [item]
    return corrupt


#: (corruption of a record="metrics" round-robin chatter sim, the error the
#: C loop refuses it with): state the Python side never builds, each
#: refused before the loop reads past it.
CORRUPTIONS = {
    "crash-times-missing": (_set_crash_times(), AttributeError),
    "crash-times-not-a-dict": (_set_crash_times([]), TypeError),
    "crash-pid-out-of-range": (_set_crash_times({9: 5}), ValueError),
    "crash-time-not-an-int": (_set_crash_times({0: "x"}), TypeError),
    "message-batch-missing": (_delete("sim", "message_batch"), AttributeError),
    "message-batch-not-an-int": (_set("sim", "message_batch", "x"), TypeError),
    "processes-not-a-list": (
        lambda sim: setattr(sim, "processes", tuple(sim.processes)), TypeError),
    "processes-short": (
        lambda sim: setattr(sim, "processes", sim.processes[:2]), ValueError),
    "interval-not-an-int": (_set("sim", "timeout_intervals", ["x"] * 4),
                            TypeError),
    "cursor-missing": (_delete("sim", "_local_event"), AttributeError),
    "log-observers-missing": (_delete("sim", "_log_observers"),
                              AttributeError),
    "run-end-time-not-an-int": (_set("sim.run", "end_time", "x"), TypeError),
    "pool-missing": (_delete("network", "_pool"), AttributeError),
    "pool-not-a-pool": (_set("sim.network", "_pool", None), TypeError),
    "delay-model-missing": (_delete("network", "delay_model"),
                            AttributeError),
    "input-not-a-triple": (_queue_head(("x",)), TypeError),
    "input-time-not-an-int": (_queue_head(("x", 0, 1)), TypeError),
    "steps-by-pid-missing": (_delete("metrics", "steps_by_pid"),
                             AttributeError),
    "steps-by-pid-not-a-list": (_set("sim.metrics", "steps_by_pid", None),
                                ValueError),
    "steps-by-pid-not-ints": (_set("sim.metrics", "steps_by_pid", ["x"] * 4),
                              TypeError),
    "metrics-end-time-not-an-int": (_set("sim.metrics", "end_time", "x"),
                                    TypeError),
    "metrics-steps-not-an-int": (_set("sim.metrics", "steps", "x"), TypeError),
}

#: the same at record="full", where the loop writes the step store
FULL_CORRUPTIONS = {
    "store-timeout-not-a-bytearray": (_set("sim.run.steps", "_timeout", []),
                                      TypeError),
    "store-column-missing": (
        lambda sim: delattr(sim.run.steps, "_sent"), AttributeError),
    "idle-observers-missing": (_delete("sim", "_idle_step_observers"),
                               AttributeError),
}


class ScriptedModel:
    """A delay model that answers ``delay`` with ``value``, and, when
    ``profile`` is given, ``delay_profile`` with it."""

    def __init__(self, value=2, profile=None):
        self.value = value
        if profile is not None:
            self.delay_profile = lambda sender, t, receivers: profile

    def delay(self, sender, receiver, t):
        return self.value


class Unreadable:
    def __bool__(self):
        raise ZeroDivisionError("no truth value")


def _compiled(model=None, sent=0):
    from repro.sim.kernel import CompiledPackedNetwork

    net = CompiledPackedNetwork(3, model or ScriptedModel())
    net._counts[0] = sent
    return net


def _without_model():
    net = _compiled()
    del net.delay_model
    return net


def _pool_state(column=0, free=(), heaps=([0],)):
    return ([1], [column], [0], [0], ["m"], list(free), list(heaps))


#: (call into the kernel's public surface, the error it is refused with)
REFUSALS = {
    "pool-n-not-an-int": (lambda: ckernel().Pool("x"), TypeError),
    "pool-without-receivers": (lambda: ckernel().Pool(0), ValueError),
    "pop-receiver-not-an-int": (
        lambda: ckernel().Pool(2).pop_due_batch("x", 0, 1), TypeError),
    "state-column-not-an-int": (
        lambda: ckernel().Pool(1).__setstate__(_pool_state(column="x")),
        TypeError),
    "state-free-slot-not-an-int": (
        lambda: ckernel().Pool(1).__setstate__(
            _pool_state(free=["x"], heaps=([],))), TypeError),
    "state-heap-not-a-list": (
        lambda: ckernel().Pool(1).__setstate__(_pool_state(heaps=((0,),))),
        ValueError),
    "send-sender-not-an-int": (
        lambda: _compiled().send_packed("x", 0, "m", 0), TypeError),
    "send-receiver-not-an-int": (
        lambda: _compiled().send_packed(0, "x", "m", 0), TypeError),
    "send-receiver-out-of-range": (
        lambda: _compiled().send_packed(0, 9, "m", 0), IndexError),
    "send-past-the-sequence-space": (
        lambda: _compiled(sent=2**40).send_packed(0, 1, "m", 0),
        OverflowError),
    "broadcast-past-the-sequence-space": (
        lambda: _compiled(sent=2**40 - 2).send_all_packed(0, "m", 0),
        OverflowError),
    "delay-not-an-int": (
        lambda: _compiled(ScriptedModel("x")).send_packed(0, 1, "m", 0),
        TypeError),
    "delay-below-one": (
        lambda: _compiled(ScriptedModel(0)).send_packed(0, 1, "m", 0),
        ValueError),
    "broadcast-sender-not-an-int": (
        lambda: _compiled().send_all_packed("x", "m", 0), TypeError),
    "broadcast-include-self-unreadable": (
        lambda: _compiled().send_all_packed(0, "m", 0, Unreadable()),
        ZeroDivisionError),
    "broadcast-without-a-delay-model": (
        lambda: _without_model().send_all_packed(0, "m", 0), AttributeError),
    "profile-not-a-sequence": (
        lambda: _compiled(ScriptedModel(profile=5)).send_all_packed(
            0, "m", 0), TypeError),
    "profile-too-short": (
        lambda: _compiled(ScriptedModel(profile=[1])).send_all_packed(
            0, "m", 0), ValueError),
    "run-loop-end-not-an-int": (
        lambda: ckernel().run_loop(
            _chatter_sim("compiled-loop", "event", "round_robin"), "x", None),
        TypeError),
    "block-permutation-arity": (
        lambda: ckernel().block_permutation(1, 2), TypeError),
}


def ckernel():
    from repro.sim import _ckernel

    return _ckernel


class Pulse(Layer):
    """Bottom: beats to its peers on each timeout and reports each beat,
    sent or heard, upward, so the stack's pending queue is drained both
    after a message and after a timeout."""

    def on_timeout(self, ctx):
        ctx.send_all(("beat", ctx.time), include_self=False)
        ctx.emit_upper(("beat", ctx.time))

    def on_message(self, ctx, sender, payload):
        ctx.emit_upper(payload)


class Heard(Layer):
    """Top: outputs every event from below."""

    def on_lower_event(self, ctx, event):
        ctx.output(event)


def _planned_sim(reshape) -> Simulation:
    """Three two-layer stacks on the C loop; p1's dispatch plan goes
    through ``reshape`` first."""
    stacks = [ProtocolStack([Pulse(), Heard()]) for __ in range(3)]
    sim = Simulation(stacks, delay_model=FixedDelay(2), timeout_interval=3,
                     kernel="compiled-loop", record="metrics")
    plan = stacks[1]._dispatch_plan
    stacks[1]._dispatch_plan = lambda ctx: reshape(plan(ctx))
    return sim


def _no_plan(plan):
    raise ZeroDivisionError("no plan")


#: what becomes of a stack's dispatch plan -> (the error the loop raises,
#: what it says)
PLAN_REFUSALS = {
    "plan-raises": (_no_plan, ZeroDivisionError, "no plan"),
    "plan-not-a-tuple": (list, TypeError, "dispatch plan"),
    "plan-short": (lambda plan: plan[:5], TypeError, "dispatch plan"),
    "handlers-not-a-tuple": (
        lambda plan: (list(plan[0]),) + plan[1:], TypeError, "dispatch plan"),
    "no-layers": (lambda plan: ((), ()) + plan[2:], TypeError, "dispatch plan"),
    "a-context-missing": (
        lambda plan: (plan[0], plan[1][:1]) + plan[2:], TypeError,
        "dispatch plan"),
    "a-timeout-context-missing": (
        lambda plan: plan[:3] + ((),) + plan[4:], TypeError, "dispatch plan"),
    "pending-unreadable": (
        lambda plan: plan[:4] + (Unreadable(),) + plan[5:], ZeroDivisionError,
        "no truth value"),
    "drain-not-callable": (
        lambda plan: plan[:4] + (deque([None]), None), TypeError,
        "not callable"),
}


@needs_c_loop
class TestTheCKernelRefusesWhatItCannotRun:
    """Every refusal the kernel makes, each with the error it names: state
    the Python side never builds, and arguments its own callers never
    pass. A refused run call fails the run, like any raise."""

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_a_corrupted_simulation(self, name):
        corrupt, error = CORRUPTIONS[name]
        sim = _chatter_sim("compiled-loop", "event", "round_robin")
        corrupt(sim)
        with pytest.raises(error) as raised:
            sim.run_until(50)
        assert sim.failed is raised.value
        if name != "cursor-missing":
            assert_buffers_released(sim)

    @pytest.mark.parametrize("name", sorted(PLAN_REFUSALS))
    def test_a_malformed_dispatch_plan(self, name):
        reshape, error, message = PLAN_REFUSALS[name]
        sim = _planned_sim(reshape)
        with pytest.raises(error, match=message) as raised:
            sim.run_until(50)
        assert sim.failed is raised.value
        assert_buffers_released(sim)

    def test_a_stack_without_a_plan_runs_its_own_methods(self):
        planned, unplanned = _planned_sim(tuple), _planned_sim(lambda plan: None)
        for sim in (planned, unplanned):
            sim.run_until(50)
        assert sim.metrics.outputs > 0
        assert run_digest(planned) == run_digest(unplanned)

    def test_a_seed_that_is_not_an_int(self):
        sim = _chatter_sim("compiled-loop", "event", "random")
        sim.seed = "x"
        with pytest.raises(TypeError, match="int seed"):
            sim.run_until(50)
        assert_buffers_released(sim)

    @pytest.mark.parametrize("name", sorted(FULL_CORRUPTIONS))
    def test_a_corrupted_step_store(self, name):
        corrupt, error = FULL_CORRUPTIONS[name]
        sim = _failure_sim("compiled-loop", Fuse(), site="", record="full")
        corrupt(sim)
        with pytest.raises(error):
            sim.run_until(50)
        assert_buffers_released(sim)

    @pytest.mark.parametrize("what", ["outbox", "queue"])
    def test_a_handler_that_leaves_junk(self, what):
        sim = _chatter_sim("compiled-loop", "event", "round_robin")
        junk = sim.processes[1] = Junk(what)
        junk.attach(1, sim.n)
        junk.sim = sim
        with pytest.raises(TypeError, match="outbox entries" if what == "outbox"
                           else "input queue items"):
            sim.run_until(50)
        assert_buffers_released(sim)

    def test_a_message_from_outside_the_processes_is_delivered(self):
        runs = []
        for extra in (False, True):
            sim = _chatter_sim("compiled-loop", "event", "round_robin")
            if extra:
                sim.network.send_packed(7, 0, ("note", 7), 0)
            sim.run_until(50)
            runs.append(sim.network.delivered_count)
        assert runs[1] == runs[0] + 1

    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_a_refused_call(self, name):
        call, error = REFUSALS[name]
        with pytest.raises(error):
            call()
