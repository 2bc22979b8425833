"""Tests for the implemented (heartbeat) Omega under partial synchrony."""

import pytest

from repro.detectors.heartbeat import HeartbeatOmegaLayer, HeartbeatOmegaProcess
from repro.properties.detector_checker import check_omega_history
from repro.detectors.scripted import ScriptedHistory
from repro.sim import AgeGstDist, FailurePattern, FixedDelay, Simulation


def heartbeat_sim(n=4, crashes=None, delay_model=None, seed=0, **kwargs):
    pattern = FailurePattern.crash(n, crashes or {})
    procs = [HeartbeatOmegaProcess(**kwargs) for _ in range(n)]
    return Simulation(
        procs,
        failure_pattern=pattern,
        delay_model=delay_model or FixedDelay(2),
        timeout_interval=3,
        seed=seed,
        message_batch=4,
    ), procs, pattern


def final_leaders(sim, pattern):
    leaders = {}
    for pid in pattern.correct:
        events = sim.run.tagged_outputs(pid, "leader")
        leaders[pid] = events[-1][1][0] if events else 0
    return leaders


class TestStableNetwork:
    def test_elects_smallest_correct_process(self):
        sim, procs, pattern = heartbeat_sim(n=4)
        sim.run_until(400)
        assert set(final_leaders(sim, pattern).values()) == {0}

    def test_detects_crash_and_reelects(self):
        sim, procs, pattern = heartbeat_sim(n=4, crashes={0: 100})
        sim.run_until(600)
        assert set(final_leaders(sim, pattern).values()) == {1}

    def test_cascading_crashes(self):
        sim, procs, pattern = heartbeat_sim(n=4, crashes={0: 100, 1: 250})
        sim.run_until(900)
        assert set(final_leaders(sim, pattern).values()) == {2}

    def test_suspected_set_excludes_alive_eventually(self):
        sim, procs, pattern = heartbeat_sim(n=3)
        sim.run_until(400)
        for pid in range(3):
            assert procs[pid].omega_layer.suspected() == frozenset()


class TestPartialSynchrony:
    def test_stabilizes_after_gst(self):
        sim, procs, pattern = heartbeat_sim(
            n=4,
            delay_model=AgeGstDist(gst=200, pre_max=40, post_delay=2, seed=5),
        )
        sim.run_until(1000)
        assert set(final_leaders(sim, pattern).values()) == {0}

    def test_emulated_history_is_omega(self):
        # Reconstruct the emulated output history and feed it to the Omega
        # checker: the implemented detector must satisfy the oracle's spec.
        sim, procs, pattern = heartbeat_sim(
            n=3,
            delay_model=AgeGstDist(gst=150, pre_max=30, post_delay=2, seed=2),
        )
        sim.run_until(900)
        streams = {
            pid: sim.run.tagged_outputs(pid, "leader") for pid in range(3)
        }

        def history(pid, t):
            current = 0
            for time_, (leader,) in streams[pid]:
                if time_ > t:
                    break
                current = leader
            return current

        check = check_omega_history(
            ScriptedHistory(history), pattern, horizon=900, sample_every=10
        )
        assert check.ok, check.reason

    def test_bounds_grow_on_false_suspicion(self):
        sim, procs, pattern = heartbeat_sim(
            n=3,
            delay_model=AgeGstDist(gst=300, pre_max=60, post_delay=2, seed=9),
            initial_bound=4,
            bound_increment=6,
        )
        sim.run_until(900)
        layer = procs[2].omega_layer
        assert any(bound > 4 for bound in layer._bound.values())


class TestParameters:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HeartbeatOmegaLayer(beat_every=0)
        with pytest.raises(ValueError):
            HeartbeatOmegaLayer(initial_bound=0)

    def test_leader_changes_counted(self):
        sim, procs, pattern = heartbeat_sim(n=3, crashes={0: 120})
        sim.run_until(600)
        assert procs[1].omega_layer.leader_changes >= 1
