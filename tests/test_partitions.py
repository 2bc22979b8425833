"""End-to-end partition scenarios.

The paper motivates eventual consistency by partition tolerance: during a
partition, replicas on different sides may disagree on the leader and
diverge; once the partition heals and Omega stabilizes, they converge. These
tests model a transient network partition with
:class:`~repro.sim.envs.OneWayPartition` over every ordered cross-group
pair, plus an Omega history that elects a leader *per side* during the
partition (Omega's spec only constrains it after some time, so this is a
legitimate history).
"""

from repro.core import EtobLayer
from repro.core.messages import payloads
from repro.detectors import ScriptedHistory
from repro.properties import check_causal_order, check_etob, extract_timeline
from repro.sim import (
    FailurePattern,
    FixedDelay,
    OneWayPartition,
    ProtocolStack,
    Simulation,
)

GROUP_A = frozenset({0, 1})
GROUP_B = frozenset({2, 3})
SPLIT_START, SPLIT_END = 100, 400


def split(start, end):
    """Groups A and B cut apart during ``[start, end)`` (forever if None)."""
    edges = tuple(
        (a, b)
        for side, other in ((GROUP_A, GROUP_B), (GROUP_B, GROUP_A))
        for a in sorted(side)
        for b in sorted(other)
    )
    return OneWayPartition(FixedDelay(2), edges=edges, start=start, end=end)


def split_brain_omega(pid, t):
    """During the partition each side trusts its own leader; then p0."""
    if SPLIT_START <= t < SPLIT_END:
        return 0 if pid in GROUP_A else 2
    return 0


def partition_sim(seed=0):
    n = 4
    pattern = FailurePattern.no_failures(n)
    delay = split(SPLIT_START, SPLIT_END)
    procs = [ProtocolStack([EtobLayer()]) for _ in range(n)]
    return Simulation(
        procs,
        failure_pattern=pattern,
        detector=ScriptedHistory(split_brain_omega),
        delay_model=delay,
        timeout_interval=3,
        seed=seed,
        message_batch=4,
    )


class TestTransientPartition:
    def test_both_sides_stay_available_during_partition(self):
        sim = partition_sim()
        sim.add_input(0, 150, ("broadcast", "side-A write"))
        sim.add_input(2, 180, ("broadcast", "side-B write"))
        sim.run_until(SPLIT_END - 10)
        tl = extract_timeline(sim.run)
        # Each side has delivered its own write mid-partition.
        assert "side-A write" in payloads(tl.sequence_at(1, SPLIT_END - 20))
        assert "side-B write" in payloads(tl.sequence_at(3, SPLIT_END - 20))
        # And has not seen the other side's write.
        assert "side-B write" not in payloads(tl.sequence_at(1, SPLIT_END - 20))

    def test_convergence_after_heal(self):
        sim = partition_sim()
        for pid, t, msg in [
            (0, 50, "before-split"),
            (0, 150, "A-1"),
            (1, 200, "A-2"),
            (2, 180, "B-1"),
            (3, 250, "B-2"),
            (2, 500, "after-heal"),
        ]:
            sim.add_input(pid, t, ("broadcast", msg))
        sim.run_until(1200)
        report = check_etob(sim.run)
        assert report.ok, report.violations
        tl = extract_timeline(sim.run)
        finals = {payloads(tl.final_sequence(pid)) for pid in range(4)}
        assert len(finals) == 1
        final = next(iter(finals))
        assert set(final) == {
            "before-split", "A-1", "A-2", "B-1", "B-2", "after-heal",
        }

    def test_divergence_is_observable_then_resolves(self):
        from repro.analysis import divergence_windows

        sim = partition_sim()
        sim.add_input(0, 150, ("broadcast", "A-1"))
        sim.add_input(2, 160, ("broadcast", "B-1"))
        sim.run_until(1200)
        windows = divergence_windows(sim.run)
        # Sequences conflicted during the split (or at worst right after the
        # heal, before the first post-heal promote lands) and resolved.
        assert windows, "expected observable divergence"
        assert all(end <= SPLIT_END + 100 for __, end in windows)

    def test_causal_order_across_partition(self):
        sim = partition_sim()
        sim.add_input(0, 50, ("broadcast", "root"))
        sim.add_input(2, 200, ("broadcast", "B-reply-to-root"))
        sim.add_input(1, 600, ("broadcast", "post-heal-reply"))
        sim.run_until(1200)
        causal = check_causal_order(sim.run)
        assert causal.ok, causal.violations

    def test_stability_tau_close_to_heal_time(self):
        sim = partition_sim()
        sim.add_input(0, 150, ("broadcast", "A-1"))
        sim.add_input(2, 160, ("broadcast", "B-1"))
        sim.run_until(1200)
        report = check_etob(sim.run)
        assert report.ok
        # After the heal everything stabilizes within a promote round trip.
        assert report.tau <= SPLIT_END + 60


class TestPermanentPartition:
    def test_sides_never_converge(self):
        n = 4
        pattern = FailurePattern.no_failures(n)
        delay = split(100, None)
        procs = [ProtocolStack([EtobLayer()]) for _ in range(n)]
        sim = Simulation(
            procs,
            failure_pattern=pattern,
            detector=ScriptedHistory(
                lambda pid, t: (0 if pid in GROUP_A else 2) if t >= 100 else 0
            ),
            delay_model=delay,
            timeout_interval=3,
            message_batch=4,
        )
        sim.add_input(0, 150, ("broadcast", "A-only"))
        sim.add_input(2, 150, ("broadcast", "B-only"))
        sim.run_until(1500)
        tl = extract_timeline(sim.run)
        side_a = payloads(tl.final_sequence(1))
        side_b = payloads(tl.final_sequence(3))
        assert "A-only" in side_a and "A-only" not in side_b
        assert "B-only" in side_b and "B-only" not in side_a
