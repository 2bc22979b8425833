"""Data-plane tests: the incremental next-delivery cursors, the columnar
step store, and the quiescence check under permanent partitions.

Four pillars:

- a hypothesis property test pinning the network's incremental next-delivery
  cursors (per-receiver heads, every counter and the quiescence check's
  reading) against a recompute-from-scratch oracle across random
  send/pop/crash/tick interleavings, on every network;
- a broadcast is all or nothing on every network: a delay model raising at
  the last receiver leaves every counter and cursor as they were, and
  every network asks the model the same calls;
- differential tests asserting the columnar :class:`StepStore` is
  byte-identical — by equality and by pickle — to the legacy list-of-records
  recording it replaced, on both scheduling policies and both engines, and
  that it holds a dense run in a fraction of that recording's memory;
- the regression for never-deliverable mail: envelopes crossing a permanent
  partition sit at or past ``NEVER`` in the cursors, and
  ``run_until_quiescent`` must not wait for them (nor for mail to a crashed
  receiver), or it spins to ``max_time``.
"""

from __future__ import annotations

import pickle
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    HAS_COMPILED,
    CompiledPackedNetwork,
    FailurePattern,
    FixedDelay,
    FullRecorder,
    Network,
    OneWayPartition,
    PackedNetwork,
    Process,
    RunRecord,
    Simulation,
    StepRecord,
    StepStore,
)
from repro.sim.network import deliver_time
from repro.sim.runs import ReceivedMessage
from repro.sim.types import NEVER

from helpers import LegacyFullRecorder
from test_engine_differential import build_sim, random_config, run_sim


# ---------------------------------------------------------------------------
# The incremental next-event index vs a recompute-from-scratch oracle.
# ---------------------------------------------------------------------------


class SometimesNeverDelay:
    """Delays pure in ``(sender, receiver, t)``: mostly in [1, 9], a slice
    never deliverable. Pure, so the oracle recomputes each delivery time."""

    def delay(self, sender, receiver, t):
        if (7 * sender + 3 * receiver + t) % 5 == 0:
            return NEVER - t
        return 1 + (sender + 2 * receiver + t) % 9


NETWORKS = [
    Network,
    PackedNetwork,
    pytest.param(
        CompiledPackedNetwork,
        marks=pytest.mark.skipif(not HAS_COMPILED, reason="C pool not built"),
    ),
]


class HorizonOracle:
    """Shadow model: plain delivery-time lists and the crashed receivers,
    every property recomputed from scratch."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.queues: list[list[int]] = [[] for _ in range(n)]
        self.crashed: set[int] = set()

    def next_delivery(self, r: int) -> int | None:
        return min(self.queues[r], default=None)

    def check(self, net: Network) -> None:
        for r in range(self.n):
            assert net.next_delivery_time(r) == self.next_delivery(r)
            assert net.in_transit(r) == len(self.queues[r])
        assert net.in_transit() == sum(len(q) for q in self.queues)
        alive = [r for r in range(self.n) if r not in self.crashed]
        due = [d for r in alive for d in self.queues[r]]
        assert net.pending_for(alive) == len(due)
        # run_until_quiescent's reading: quiescent exactly when no alive
        # receiver holds mail due before NEVER.
        head = net.earliest_pending(alive)
        assert head == min(due, default=None)
        assert (head is None or head >= NEVER) == all(d >= NEVER for d in due)


class TestHorizonIndexOracle:
    @pytest.mark.parametrize("cls", NETWORKS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_index_matches_oracle_across_interleavings(self, cls, data):
        n = data.draw(st.integers(min_value=2, max_value=5), label="n")
        model = SometimesNeverDelay()
        net = cls(n, model)
        oracle = HorizonOracle(n)
        t = 0
        ops = data.draw(
            st.lists(
                st.sampled_from(["send", "send_all", "pop", "crash", "tick"]),
                min_size=1,
                max_size=50,
            ),
            label="ops",
        )
        for op in ops:
            if op == "send":
                sender = data.draw(st.integers(0, n - 1))
                receiver = data.draw(st.integers(0, n - 1))
                net.send_packed(sender, receiver, "m", t)
                oracle.queues[receiver].append(
                    deliver_time(t, model.delay(sender, receiver, t))
                )
            elif op == "send_all":
                sender = data.draw(st.integers(0, n - 1))
                include_self = data.draw(st.booleans())
                receivers = [r for r in range(n) if include_self or r != sender]
                assert net.send_all_packed(
                    sender, "m", t, include_self
                ) == len(receivers)
                for r in receivers:
                    oracle.queues[r].append(
                        deliver_time(t, model.delay(sender, r, t))
                    )
            elif op == "pop":
                receiver = data.draw(st.integers(0, n - 1))
                limit = data.draw(st.integers(1, 3))
                popped = net.pop_deliverable_batch_raw(receiver, t, limit)
                due = sorted(d for d in oracle.queues[receiver] if d <= t)
                assert [item[0] for item in popped] == due[:limit]
                for d in due[:limit]:
                    oracle.queues[receiver].remove(d)
            elif op == "crash":
                # the network does not know: a crashed receiver's mail stays
                # queued, and only the readers' receiver sets change
                oracle.crashed.add(data.draw(st.integers(0, n - 1)))
            else:  # tick
                t += data.draw(st.integers(1, 12))
            oracle.check(net)

    def test_delivery_cursor_survives_crash_gated_queries(self):
        # The scheduler's next-event scans skip a crash-gated receiver's
        # mail without consuming it: the network's cursor still reports it.
        class Quiet(Process):
            pass

        pattern = FailurePattern.crash(3, {2: 1})
        sim = Simulation(
            [Quiet() for _ in range(3)],
            failure_pattern=pattern,
            delay_model=FixedDelay(4),
            timeout_interval=7,
            record="outputs",
        )
        sim.network.send_packed(0, 2, "dead letter", 1)
        sim.run_until(50)
        assert sim.network.next_delivery_time(2) == 5
        assert sim.network.earliest_pending(range(3)) == 5


# ---------------------------------------------------------------------------
# A broadcast is all or nothing, on every network.
# ---------------------------------------------------------------------------


class Refused(Exception):
    pass


class LastReceiverRefuses:
    """Delays ``1 + receiver``, every call logged; once ``armed``, the draw
    for the last process raises — from ``delay``, or from inside
    ``delay_profile`` when ``vectorized``."""

    def __init__(self, n: int, vectorized: bool) -> None:
        self.n = n
        self.armed = False
        self.calls: list[tuple] = []
        if vectorized:
            self.delay_profile = self._profile

    def _draw(self, receiver):
        if self.armed and receiver == self.n - 1:
            raise Refused(receiver)
        return 1 + receiver

    def delay(self, sender, receiver, t):
        self.calls.append(("delay", sender, receiver, t))
        return self._draw(receiver)

    def _profile(self, sender, t, receivers):
        self.calls.append(("delay_profile", sender, tuple(receivers), t))
        return [self._draw(receiver) for receiver in receivers]


def _network_state(net: Network) -> tuple:
    return (
        net.sent_count,
        net.in_transit(),
        [net.in_transit(r) for r in range(net.n)],
        [net.next_delivery_time(r) for r in range(net.n)],
    )


class TestBroadcastAllOrNothing:
    @pytest.mark.parametrize("vectorized", [False, True], ids=["delay", "profile"])
    @pytest.mark.parametrize("cls", NETWORKS)
    def test_a_model_raising_at_the_last_receiver_queues_nothing(
        self, cls, vectorized
    ):
        model = LastReceiverRefuses(4, vectorized)
        net = cls(4, model)
        net.send_all_packed(3, "m", 5)
        net.send_packed(1, 2, "p", 6)
        before = _network_state(net)
        model.armed = True
        for include_self in (True, False):
            with pytest.raises(Refused):
                net.send_all_packed(0, "m", 7, include_self)
            assert _network_state(net) == before

    @pytest.mark.parametrize("vectorized", [False, True], ids=["delay", "profile"])
    def test_every_network_asks_the_model_the_same_questions(self, vectorized):
        logs = []
        for cls in (Network, PackedNetwork, CompiledPackedNetwork):
            if cls is CompiledPackedNetwork and not HAS_COMPILED:
                continue
            model = LastReceiverRefuses(4, vectorized)
            net = cls(4, model)
            net.send_all_packed(2, "m", 0)
            net.send_all_packed(1, "m", 3, False)
            net.send_packed(0, 3, "p", 4)
            model.armed = True
            with pytest.raises(Refused):
                net.send_all_packed(0, "m", 5, False)
            logs.append(model.calls)
        # one profile call per broadcast, or one delay call per receiver in
        # receiver order: the draws of as many point-to-point sends
        if vectorized:
            expected = [
                ("delay_profile", 2, (0, 1, 2, 3), 0),
                ("delay_profile", 1, (0, 2, 3), 3),
                ("delay", 0, 3, 4),
                ("delay_profile", 0, (1, 2, 3), 5),
            ]
        else:
            expected = (
                [("delay", 2, r, 0) for r in (0, 1, 2, 3)]
                + [("delay", 1, r, 3) for r in (0, 2, 3)]
                + [("delay", 0, 3, 4)]
                + [("delay", 0, r, 5) for r in (1, 2, 3)]
            )
        assert logs == [expected] * len(logs)


# ---------------------------------------------------------------------------
# Columnar recording vs the legacy per-step list, byte for byte.
# ---------------------------------------------------------------------------


def build_legacy_sim(config: dict, *, engine: str) -> tuple[Simulation, RunRecord]:
    """A sim recording through the pre-columnar list-of-records path."""
    pattern = FailurePattern.crash(config["n"], config["crashes"])
    legacy_run = RunRecord(config["n"], pattern, steps=[], seed=13)
    recorder = LegacyFullRecorder(legacy_run)
    sim = build_sim(config, engine=engine, record="none", observers=[recorder])
    return sim, legacy_run


class TestColumnarVsLegacyRecording:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    def test_columnar_equals_legacy(self, seed, scheduling):
        config = random_config(seed)
        config["scheduling"] = scheduling
        columnar = run_sim(build_sim(config, engine="event", record="full"), config)
        legacy_sim, legacy_run = build_legacy_sim(config, engine="event")
        run_sim(legacy_sim, config)
        assert isinstance(columnar.run.steps, StepStore)
        assert isinstance(legacy_run.steps, list)
        assert columnar.run == legacy_run, f"records diverged for {config}"
        # Order of the comparison must not matter (list on the left).
        assert legacy_run == columnar.run

    def test_each_recorder_rejects_the_other_ones_run(self):
        from repro.sim.errors import ConfigurationError

        pattern = FailurePattern.no_failures(2)
        with pytest.raises(ConfigurationError):
            LegacyFullRecorder(RunRecord(2, pattern))
        with pytest.raises(ConfigurationError, match="columnar run"):
            FullRecorder(RunRecord(2, pattern, steps=[]))


class Gossip(Process):
    """Saturating traffic source: broadcast to the peers on every timeout."""

    def on_timeout(self, ctx):
        ctx.send_all(("beat", ctx.time), include_self=False)

    def on_message(self, ctx, sender, payload):
        pass


#: the list recorder's peak traced memory over the columnar store's, on
#: a dense full-fidelity run, must stay at least this (about 3.9x)
MEMORY_RATIO_FLOOR = 2.5


def peak_traced_bytes(observers=(), **options) -> int:
    """Peak ``tracemalloc`` bytes of 60 000 ticks of a saturated gossip
    mesh on the legacy kernel, where a step is retained on most ticks."""
    tracemalloc.start()
    try:
        sim = Simulation(
            [Gossip() for _ in range(4)], delay_model=FixedDelay(2),
            timeout_interval=32, seed=0, kernel="legacy",
            observers=list(observers), **options,
        )
        sim.run_until(60_000)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_columnar_store_keeps_a_dense_run_in_less_memory():
    columnar = peak_traced_bytes(record="full")
    legacy_run = RunRecord(4, FailurePattern.no_failures(4), steps=[], seed=0)
    legacy = peak_traced_bytes([LegacyFullRecorder(legacy_run)], record="none")
    assert len(legacy_run.steps) == 60_000
    assert legacy / columnar >= MEMORY_RATIO_FLOOR, (legacy, columnar)


class TestRunRecordSerialization:
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_pickle_byte_identical_across_engines(self, seed):
        config = random_config(seed)
        naive = run_sim(build_sim(config, engine="naive"), config)
        event = run_sim(build_sim(config, engine="event"), config)
        assert pickle.dumps(naive.run) == pickle.dumps(event.run)

    def test_pickle_round_trip_preserves_views(self):
        config = random_config(2)
        sim = run_sim(build_sim(config, engine="event"), config)
        clone = pickle.loads(pickle.dumps(sim.run))
        assert clone == sim.run
        assert list(clone.iter_steps()) == list(sim.run.iter_steps())


# ---------------------------------------------------------------------------
# StepStore unit behaviour: lazy views, sequence protocol, equality.
# ---------------------------------------------------------------------------


def sample_records() -> list[StepRecord]:
    return [
        StepRecord(index=0, time=0, pid=0, message=None, fd_value=("leader", 1)),
        StepRecord(
            index=1,
            time=1,
            pid=1,
            message=ReceivedMessage(sender=0, payload=("x", 9), send_time=0),
            fd_value=("leader", 1),
            inputs=("go",),
            outputs=(("decide", 1, "v"),),
            timeout_fired=True,
            sent=3,
            received_count=1,
        ),
        StepRecord(index=2, time=4, pid=0, message=None, fd_value=None),
    ]


class TestStepStore:
    def filled(self) -> tuple[StepStore, list[StepRecord]]:
        records = sample_records()
        store = StepStore()
        for record in records:
            store.append(record)
        return store, records

    def test_views_round_trip(self):
        store, records = self.filled()
        assert list(store) == records
        assert [store[i] for i in range(len(store))] == records
        assert store[-1] == records[-1]
        assert store[1:] == records[1:]

    def test_sequence_protocol(self):
        store, records = self.filled()
        assert len(store) == 3
        assert bool(store)
        assert not bool(StepStore())
        with pytest.raises(IndexError):
            store[3]

    def test_equality_with_list_and_store(self):
        store, records = self.filled()
        other, __ = self.filled()
        assert store == other
        assert store == records
        assert records == store
        assert StepStore() == []
        assert not store == records[:-1]
        assert store != [
            *records[:-1],
            StepRecord(index=2, time=5, pid=0, message=None, fd_value=None),
        ]

    def test_append_idle_matches_full_append(self):
        record = StepRecord(index=7, time=42, pid=2, message=None, fd_value="fd")
        via_append, via_idle = StepStore(), StepStore()
        via_append.append(record)
        via_idle.append_idle(7, 42, 2, "fd")
        assert via_append == via_idle
        assert via_idle[0] == record

    def test_fd_interning_shares_equal_samples(self):
        store = StepStore()
        store.append_idle(0, 0, 0, ("leader", 1))
        store.append_idle(1, 1, 1, ("leader", 1))
        assert store._fd[0] is store._fd[1]

    def test_unhashable_fd_values_stored_raw(self):
        store = StepStore()
        sample = {"omega": 1}
        store.append_idle(0, 0, 0, sample)
        assert store[0].fd_value == {"omega": 1}

    def test_run_record_column_queries(self):
        records = sample_records()
        run = RunRecord(2, FailurePattern.no_failures(2))
        for record in records:
            run.record_step(record)
        assert run.step_times(0) == [0, 4]
        assert run.step_times(1) == [1]
        assert run.fd_samples(0) == [(0, ("leader", 1)), (4, None)]
        assert run.step_count(0) == 2
        assert [s.index for s in run.steps_of(0)] == [0, 2]
        assert list(run.iter_steps()) == records


# ---------------------------------------------------------------------------
# Quiescence with never-deliverable mail (permanent partitions).
# ---------------------------------------------------------------------------


class CrossSender(Process):
    """Sends one message to the opposite process at its first step."""

    def on_start(self, ctx):
        ctx.send((ctx.pid + 1) % ctx.n, ("hello", ctx.pid))


def permanent_split_model() -> OneWayPartition:
    return OneWayPartition(FixedDelay(1), edges=((0, 1), (1, 0)), start=0)


class TestQuiescenceUnderPermanentPartition:
    def test_run_until_quiescent_terminates(self):
        # Regression: envelopes with deliver_at >= NEVER once counted as
        # pending, so this loop spun to max_time.
        sim = Simulation(
            [CrossSender(), CrossSender()],
            delay_model=permanent_split_model(),
            timeout_interval=10_000,
            record="outputs",
        )
        sim.run_until(10)
        assert sim.network.in_transit() == 2  # both held forever
        assert sim.network.earliest_pending(range(2)) >= NEVER
        sim.run_until_quiescent(max_time=100_000)
        assert sim.time == 10  # returned immediately, not at max_time

    def test_never_deliverable_mail_reads_at_or_past_never(self):
        net = Network(2, permanent_split_model())
        net.send(0, 1, "cross", 0)
        assert net.in_transit(1) == 1
        assert net.next_delivery_time(1) >= NEVER
        net.send(1, 1, "self", 0)  # same group: deliverable, and the head
        assert net.next_delivery_time(1) == 1

    @pytest.mark.parametrize("engine", ["event", "naive"])
    def test_mail_to_a_crashed_receiver_does_not_hold_the_run(self, engine):
        class Quiet(Process):
            pass

        sim = Simulation(
            [Quiet(), Quiet()],
            failure_pattern=FailurePattern.crash(2, {1: 1}),
            delay_model=permanent_split_model(),
            timeout_interval=10_000,
            engine=engine,
            record="outputs",
        )
        sim.network.send_packed(0, 1, "cross", 0)  # never deliverable
        sim.network.send_packed(1, 1, "self", 0)  # due at 1, when p1 crashes
        sim.run_until_quiescent(max_time=100_000)
        # t=0: p1 is alive with deliverable mail, so p0 steps; t=1: p1 has
        # crashed and nothing deliverable is queued for the living.
        assert sim.time == 1
        assert sim.network.in_transit(1) == 2
