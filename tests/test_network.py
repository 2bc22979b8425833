"""Unit tests for the network (the message buffer).

The delay-model tests check that the buffer schedules each message at
``send time + delay`` for the models of :mod:`repro.sim.envs`; the models'
own draws are pinned in ``test_envs.py``.
"""

import pytest

from repro.sim import ConfigurationError, FixedDelay
from repro.sim.envs import AgeGstDist, OneWayPartition, UniformDist
from repro.sim.network import Network
from repro.sim.types import NEVER


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
        assert net.live_pending == 0
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


class TestLivePendingCounter:
    def test_send_and_pop_update_counter(self):
        net = Network(2, FixedDelay(1))
        assert net.live_pending == 0
        net.send(0, 1, "a", 0)
        net.send(0, 1, "b", 0)
        assert net.live_pending == 2
        net.pop_deliverable(1, 5)
        assert net.live_pending == 1

    def test_mark_crashed_discounts_queued_messages(self):
        net = Network(3, FixedDelay(1))
        net.send(0, 1, "m1", 0)
        net.send(0, 2, "m2", 0)
        net.mark_crashed(1)
        assert net.live_pending == 1
        # Messages sent to a dead receiver are never counted.
        net.send(0, 1, "m3", 0)
        assert net.live_pending == 1

    def test_mark_crashed_is_idempotent(self):
        net = Network(2, FixedDelay(1))
        net.send(0, 1, "m", 0)
        net.mark_crashed(1)
        net.mark_crashed(1)
        assert net.live_pending == 0

    def test_counter_matches_pending_for_live_receivers(self):
        net = Network(4, FixedDelay(2))
        for receiver in (1, 2, 3, 2):
            net.send(0, receiver, "m", 0)
        net.mark_crashed(2)
        alive = {0, 1, 3}
        assert net.live_pending == net.pending_for(alive)
