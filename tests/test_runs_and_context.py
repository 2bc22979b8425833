"""Tests for run records, the step context, and delivery timelines."""

import pytest

from repro.core.messages import AppMessage, MessageId
from repro.properties import CausalMonitor, EtobMonitor
from repro.properties.delivery import extract_timeline
from repro.sim.context import (
    BROADCAST_ALL,
    BROADCAST_OTHERS,
    Context,
    expand_sends,
)
from repro.sim.failures import FailurePattern
from repro.sim.runs import RunRecord, StepRecord


class TestContext:
    def test_send_validates_receiver(self):
        ctx = Context(pid=0, n=3, time=5)
        with pytest.raises(ValueError):
            ctx.send(5, "x")

    def test_send_all_buffers_one_sentinel_entry(self):
        ctx = Context(pid=1, n=3, time=0)
        ctx.send_all("m")
        assert ctx.drain_outbox() == [(BROADCAST_ALL, "m")]

    def test_send_all_includes_self_by_default(self):
        ctx = Context(pid=1, n=3, time=0)
        ctx.send_all("m")
        sends = list(expand_sends(ctx.drain_outbox(), ctx.pid, ctx.n))
        assert [r for r, __ in sends] == [0, 1, 2]

    def test_send_all_exclude_self(self):
        ctx = Context(pid=1, n=3, time=0)
        ctx.send_all("m", include_self=False)
        outbox = ctx.drain_outbox()
        assert outbox == [(BROADCAST_OTHERS, "m")]
        assert [r for r, __ in expand_sends(outbox, 1, 3)] == [0, 2]

    def test_expand_sends_preserves_interleaving(self):
        ctx = Context(pid=0, n=3, time=0)
        ctx.send(2, "point")
        ctx.send_all("cast")
        ctx.send(1, "tail")
        sends = list(expand_sends(ctx.drain_outbox(), 0, 3))
        assert sends == [
            (2, "point"),
            (0, "cast"),
            (1, "cast"),
            (2, "cast"),
            (1, "tail"),
        ]

    def test_drain_clears_buffers(self):
        ctx = Context(pid=0, n=2, time=0)
        ctx.send(1, "a")
        ctx.output("o")
        ctx.log("l")
        assert ctx.drain_outbox() == [(1, "a")]
        assert ctx.drain_outbox() == []
        assert ctx.drain_outputs() == ["o"]
        assert ctx.drain_log() == ["l"]

    def test_omega_from_plain_value(self):
        ctx = Context(pid=0, n=2, time=0, fd_value=1)
        assert ctx.omega() == 1

    def test_omega_from_composite(self):
        ctx = Context(pid=0, n=2, time=0, fd_value={"omega": 2, "sigma": {0, 1}})
        assert ctx.omega() == 2
        assert ctx.sigma() == {0, 1}
        assert ctx.detector("sigma") == {0, 1}

    def test_missing_component_raises(self):
        ctx = Context(pid=0, n=2, time=0, fd_value={"omega": 1})
        with pytest.raises(KeyError):
            ctx.sigma()

    def test_no_detector_raises(self):
        ctx = Context(pid=0, n=2, time=0, fd_value=None)
        with pytest.raises(ValueError):
            ctx.omega()


class TestRunRecord:
    def make_run(self):
        run = RunRecord(2, FailurePattern.no_failures(2))
        run.record_step(
            StepRecord(
                index=0, time=0, pid=0, message=None, fd_value=0,
                inputs=("in",), outputs=(("decide", 1, "v"), "plain"),
            )
        )
        run.record_step(
            StepRecord(index=1, time=1, pid=1, message=None, fd_value=0)
        )
        return run

    def test_histories_recorded(self):
        run = self.make_run()
        assert run.inputs_of(0) == [(0, "in")]
        assert run.outputs_of(0) == [(0, ("decide", 1, "v")), (0, "plain")]
        assert run.end_time == 1

    def test_tagged_outputs_filters_and_strips(self):
        run = self.make_run()
        assert run.tagged_outputs(0, "decide") == [(0, (1, "v"))]
        assert run.tagged_outputs(0, "other") == []

    def test_step_counts(self):
        run = self.make_run()
        assert run.step_count() == 2
        assert run.step_count(0) == 1
        assert list(run.steps_of(1))[0].index == 1

    def test_fd_samples(self):
        run = self.make_run()
        assert run.fd_samples(0) == [(0, 0)]


class TestDeliveryTimeline:
    def make_run(self):
        a = AppMessage(MessageId(0, 0), "a")
        b = AppMessage(MessageId(1, 0), "b")
        run = RunRecord(2, FailurePattern.no_failures(2))
        run.output_history[0] = [
            (1, ("broadcast-uid", a.uid, "a")),
            (5, ("deliver", (a,))),
            (9, ("deliver", (a, b))),
        ]
        run.output_history[1] = [
            (2, ("broadcast-uid", b.uid, "b")),
            (7, ("deliver", (b,))),
            (12, ("deliver", (a, b))),
        ]
        run.end_time = 12
        return run, a, b

    def test_sequence_at(self):
        run, a, b = self.make_run()
        tl = extract_timeline(run)
        assert tl.sequence_at(0, 4) == ()
        assert tl.sequence_at(0, 5) == (a,)
        assert tl.sequence_at(0, 100) == (a, b)

    def test_stable_delivery_time(self):
        run, a, b = self.make_run()
        monitor = EtobMonitor(range(2)).replay(run)
        assert monitor.stable_delivery_time(0, a.uid) == 5
        # At p1, a only appears from the second snapshot.
        assert monitor.stable_delivery_time(1, a.uid) == 12
        # b at p1 is stable from its first appearance.
        assert monitor.stable_delivery_time(1, b.uid) == 7

    def test_unstable_message_has_no_stable_time(self):
        run, a, b = self.make_run()
        # Remove b from p1's final snapshot: b was delivered but not stably.
        run.output_history[1][-1] = (12, ("deliver", (a,)))
        monitor = EtobMonitor(range(2)).replay(run)
        assert monitor.stable_delivery_time(1, b.uid) is None

    def test_broadcasts_and_universe(self):
        run, a, b = self.make_run()
        tl = extract_timeline(run)
        assert set(tl.broadcasts) == {a.uid, b.uid}
        assert set(EtobMonitor(range(2)).replay(run).broadcasts) == {a.uid, b.uid}
        causal = CausalMonitor(range(2)).replay(run)
        assert set(causal.deps) == {a.uid, b.uid}
        assert causal.deps[a.uid] == a.deps

    def test_merged_events_sorted(self):
        run, a, b = self.make_run()
        stream = run.output_stream()
        times = [t for t, __, ___ in stream]
        assert times == sorted(times)
        assert [pid for __, pid, ___ in stream] == [0, 1, 0, 1, 0, 1]
        assert stream[1] == (2, 1, (("broadcast-uid", b.uid, "b"),))

    def test_output_stream_groups_one_step_and_orders_ties_by_pid(self):
        run = RunRecord(2, FailurePattern.no_failures(2))
        run.output_history[1] = [(3, "x"), (3, "y"), (4, "z")]
        run.output_history[0] = [(3, "w")]
        assert run.output_stream() == [
            (3, 0, ("w",)), (3, 1, ("x", "y")), (4, 1, ("z",))
        ]
