"""Tests for the fluent scenario builder."""

import pytest

from repro.properties import check_ec, check_eic, check_etob, check_tob
from repro.replication import Counter
from repro.scenario import Scenario
from repro.sim.errors import ConfigurationError


class TestBuilding:
    def test_requires_a_protocol(self):
        with pytest.raises(ConfigurationError):
            Scenario(3).build()

    def test_crash_configures_pattern(self):
        sim = Scenario(3).crash(1, at=50).etob().omega().build()
        assert sim.failure_pattern.crash_time(1) == 50

    def test_crash_majority(self):
        sim = Scenario(5).crash_majority(at=100).etob().omega(leader=4).build()
        assert sim.failure_pattern.faulty == frozenset({0, 1, 2})

    def test_invalid_n_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(0)

    def test_explicit_detector_history_wins(self):
        from repro.detectors import ScriptedHistory

        history = ScriptedHistory(lambda pid, t: 2)
        sim = Scenario(3).detector(history).etob().build()
        assert sim.detector is history


class TestTheChainWritesARunSpec:
    def test_spec_holds_every_chained_value(self):
        from repro.sim import FixedDelay, RunSpec, UniformDist

        scenario = (
            Scenario(4, seed=3)
            .crash(3, at=300)
            .omega(tau=150, leader=1, pre="random")
            .random_delays(2, 20)
            .timeout_interval([4, 5, 6, 7])
            .message_batch(4)
            .random_scheduling()
            .strong_tob(quorum="sigma")
            .broadcast(0, 20, "a")
            .record("outputs")
        )
        assert scenario.spec(900) == RunSpec(
            n=4, duration=900, protocol="tob-consensus",
            protocol_args=(("quorum_mode", "sigma"),), crashes=((3, 300),),
            inputs=((0, 20, ("broadcast", "a")),), seed=3, tau=150,
            pre="random", leader=1, links=UniformDist(2, 20, seed=3),
            timeout_interval=(4, 5, 6, 7), scheduling="random",
            message_batch=4, record="outputs",
        )
        # The scenario's own defaults: no detector, 2-tick links, full record.
        default = Scenario(2).etob().spec()
        assert (default.tau, default.links, default.record) == (
            None, FixedDelay(2), "full"
        )
        assert Scenario(2).etob().build().detector is None

    def test_a_code_stack_leaves_the_protocol_unnamed(self):
        spec = Scenario(3).omega().replicated(Counter).spec()
        assert spec.protocol is None and spec.protocol_args == ()


class TestEndToEnd:
    def test_etob_scenario(self):
        sim = (
            Scenario(4, seed=3)
            .crash(3, at=300)
            .omega(tau=150, pre="rotate")
            .fixed_delays(2)
            .timeout_interval(4)
            .etob()
            .broadcast(0, 20, "a")
            .broadcast(1, 60, "b")
            .run(900)
        )
        report = check_etob(sim.run)
        assert report.ok, report.violations

    def test_ec_scenario(self):
        sim = Scenario(3).omega().ec(instances=5).run(700)
        report = check_ec(sim.run, expected_instances=5)
        assert report.ok, report.violations

    def test_eic_scenario(self):
        sim = Scenario(3).omega().eic(instances=5).run(900)
        report = check_eic(sim.run, expected_instances=5)
        assert report.ok, report.violations

    def test_strong_tob_scenario(self):
        sim = (
            Scenario(4)
            .omega()
            .strong_tob()
            .message_batch(4)
            .broadcast(0, 10, "x")
            .broadcast(1, 80, "y")
            .run(2500)
        )
        report = check_tob(sim.run)
        assert report.ok, report.violations

    def test_strong_tob_with_sigma_quorums(self):
        sim = (
            Scenario(5, seed=1)
            .crash_majority(at=100)
            .omega(tau=150, leader=4)
            .strong_tob(quorum="sigma")
            .message_batch(4)
            .broadcast(3, 250, "minority-write")
            .run(5000)
        )
        from repro.core.messages import payloads
        from repro.properties import extract_timeline

        tl = extract_timeline(sim.run)
        assert "minority-write" in payloads(tl.final_sequence(4))

    def test_replicated_counter(self):
        sim = (
            Scenario(3)
            .omega()
            .replicated(Counter, commit=True)
            .message_batch(8)
            .invoke(0, 10, ("add", 2))
            .invoke(1, 60, ("add", 3))
            .run(700)
        )
        states = [sim.processes[p].layer("replica").state for p in range(3)]
        assert states == [5, 5, 5]
        assert sim.run.tagged_outputs(0, "committed")

    def test_gst_delays_with_random_scheduling(self):
        sim = (
            Scenario(3, seed=9)
            .gst_delays(gst=100, pre_max=20, post=2)
            .random_scheduling()
            .omega()
            .etob()
            .broadcast(0, 30, "m")
            .run(600)
        )
        report = check_etob(sim.run)
        assert report.ok, report.violations

    def test_determinism_same_seed(self):
        def fresh_run():
            sim = (
                Scenario(3, seed=42)
                .random_delays(2, 20)
                .omega(tau=80)
                .etob()
                .broadcast(0, 10, "m")
                .run(400)
            )
            return [(s.time, s.pid, s.sent) for s in sim.run.steps]

        assert fresh_run() == fresh_run()


class TestCrashMajority:
    def test_even_n_crashes_a_strict_majority(self):
        # Regression: for even n, ceil(n/2) = n/2 is NOT a majority; the
        # builder must crash floor(n/2)+1 processes for both parities.
        sim = Scenario(4).crash_majority(at=10).etob().omega(leader=3).build()
        assert sim.failure_pattern.faulty == frozenset({0, 1, 2})
        assert len(sim.failure_pattern.faulty) > 4 // 2
        assert not sim.failure_pattern.has_correct_majority

    def test_odd_n_unchanged(self):
        sim = Scenario(5).crash_majority(at=10).etob().omega(leader=4).build()
        assert sim.failure_pattern.faulty == frozenset({0, 1, 2})

    def test_n6(self):
        sim = Scenario(6).crash_majority(at=10).etob().omega(leader=5).build()
        assert sim.failure_pattern.faulty == frozenset({0, 1, 2, 3})


class TestSigmaQuorumOrdering:
    def sample(self, sim):
        return sim.detector.query(0, 0)

    def test_omega_then_strong_tob_upgrades_detector(self):
        sim = Scenario(5, seed=1).omega(tau=50).strong_tob(quorum="sigma").build()
        value = self.sample(sim)
        assert isinstance(value, dict) and "sigma" in value and "omega" in value

    def test_strong_tob_then_omega_upgrades_detector(self):
        # Regression: the upgrade used to fire only if omega() had already
        # been configured when strong_tob() ran; it now resolves at build().
        sim = Scenario(5, seed=1).strong_tob(quorum="sigma").omega(tau=50).build()
        value = self.sample(sim)
        assert isinstance(value, dict) and "sigma" in value and "omega" in value

    def test_majority_quorums_keep_bare_omega(self):
        sim = Scenario(5, seed=1).strong_tob().omega(tau=50).build()
        assert not isinstance(self.sample(sim), dict)


class TestEngineAndRecordChainers:
    def test_record_and_engine_passthrough(self):
        sim = Scenario(3).omega().etob().record("metrics").engine("naive").build()
        assert sim.record_level == "metrics"
        assert sim.engine == "naive"

    def test_default_is_event_full(self):
        sim = Scenario(3).omega().etob().build()
        assert sim.engine == "event"
        assert sim.record_level == "full"

    def test_sigma_upgrade_preserves_pinned_leader(self):
        sim = (
            Scenario(5, seed=1)
            .omega(tau=0, leader=2)
            .strong_tob(quorum="sigma")
            .build()
        )
        value = sim.detector.query(0, 100)
        assert value["omega"] == 2

    def test_later_stack_discards_sigma_quorum_request(self):
        sim = Scenario(4).strong_tob(quorum="sigma").omega(tau=0).etob().build()
        # The etob stack never asked for Sigma; its samples stay bare pids.
        assert not isinstance(sim.detector.query(0, 0), dict)
