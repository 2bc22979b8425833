"""Tests for Algorithm 4: EC using Omega (Lemma 2).

The paper's claim: in *any* environment, Algorithm 4 satisfies
EC-Termination, EC-Integrity, EC-Validity always, and EC-Agreement from some
instance k on — where k is bounded by the instances started after Omega's
stabilization time.
"""

from dataclasses import replace

import pytest

from repro.core.drivers import binary_proposals
from repro.properties import check_ec
from repro.sim import RunSpec, run_plan
from repro.sim.envs import make_env

from mutants import EcDecidesFirstProposal, register_mutants
from tests.helpers import ec_sim, fairness_slack

#: The cheapest cell that kills :class:`mutants.EcDecidesFirstProposal`:
#: ``ec_sim``'s stack (distinct proposals, three instances, Omega stable
#: from tick 0, round-robin) under reordering links. The mutant's
#: processes decide different first promotes in every instance.
EC_MUTANT_CELL = RunSpec(
    n=3,
    duration=300,
    protocol="ec-decides-first-proposal",
    protocol_args=(("instances", 3),),
    seed=1,
    tau=0,
    links=make_env("uniform", seed=1, base_delay=2).delay,
    timeout_interval=4,
)


class TestStableLeader:
    def test_all_properties_from_instance_one(self):
        sim = ec_sim(n=3, tau_omega=0, instances=6)
        sim.run_until(800)
        report = check_ec(sim.run, expected_instances=6)
        assert report.ok, report.violations
        assert report.agreement_index == 1

    def test_decided_values_are_leaders_proposals(self):
        sim = ec_sim(n=4, tau_omega=0, instances=4)
        sim.run_until(800)
        for pid in range(4):
            for __, (instance, value) in sim.run.tagged_outputs(pid, "decide"):
                assert value == f"v0.{instance}"  # p0 is the stable leader

    def test_binary_proposals_agree_too(self):
        sim = ec_sim(n=3, tau_omega=0, instances=5, proposal_fn=binary_proposals)
        sim.run_until(800)
        report = check_ec(sim.run, expected_instances=5)
        assert report.ok, report.violations


class TestChurnThenStabilization:
    # Instances complete every handful of ticks, so runs need enough
    # instances that a tail of them starts after Omega stabilizes.

    def test_agreement_holds_from_some_instance_on(self):
        sim = ec_sim(n=4, tau_omega=150, pre_behavior="rotate", instances=50, seed=3)
        sim.run_until(2500)
        report = check_ec(sim.run, expected_instances=50)
        assert report.termination_ok and report.integrity_ok and report.validity_ok
        assert report.agreement_index <= 50, "agreement never stabilized"

    def test_pre_stabilization_disagreement_is_possible(self):
        # With rotating leaders, early instances can legitimately disagree;
        # this documents that EC (unlike consensus) allows it.
        sim = ec_sim(n=4, tau_omega=300, pre_behavior="rotate", instances=60, seed=1)
        sim.run_until(3000)
        report = check_ec(sim.run, expected_instances=60)
        assert report.ok, report.violations
        # Not asserting disagreement happened — only that if it did, it was
        # confined to instances below the agreement index.
        assert report.agreement_index >= 1

    def test_agreement_time_after_stabilization_when_disagreeing_early(self):
        sim = ec_sim(n=4, tau_omega=200, pre_behavior="rotate", instances=60, seed=5)
        sim.run_until(3000)
        report = check_ec(sim.run, expected_instances=60)
        assert report.ok, report.violations
        if report.agreement_index > 1:
            assert report.agreement_time is not None


class TestAnyEnvironment:
    """Lemma 2 holds with no assumption on the number of failures."""

    def test_minority_correct(self):
        # 1 of 3 correct: far below any majority.
        sim = ec_sim(n=3, crashes={1: 100, 2: 140}, tau_omega=0, instances=6)
        sim.run_until(1200)
        report = check_ec(sim.run, expected_instances=6)
        assert report.ok, report.violations

    def test_single_survivor(self):
        sim = ec_sim(n=4, crashes={1: 60, 2: 60, 3: 60}, tau_omega=0, instances=5)
        sim.run_until(1500)
        report = check_ec(sim.run, expected_instances=5)
        assert report.ok, report.violations

    def test_leader_crash_before_stabilization(self):
        # p0 crashes at t=80; Omega stabilizes on p1 at t=200.
        from repro.detectors import OmegaDetector
        from repro.sim import FailurePattern, FixedDelay, ProtocolStack, Simulation
        from repro.core import EcDriverLayer, EcUsingOmegaLayer

        pattern = FailurePattern.crash(3, {0: 80})
        detector = OmegaDetector(
            stabilization_time=200, pre_behavior="rotate"
        ).history(pattern)
        procs = [
            ProtocolStack([EcUsingOmegaLayer(), EcDriverLayer(max_instances=6)])
            for _ in range(3)
        ]
        sim = Simulation(
            procs,
            failure_pattern=pattern,
            detector=detector,
            delay_model=FixedDelay(2),
            timeout_interval=4,
        )
        sim.run_until(1500)
        report = check_ec(sim.run, expected_instances=6)
        assert report.ok, report.violations


class TestMechanics:
    def test_runs_are_admissible_proxies(self):
        sim = ec_sim(n=3, instances=3)
        sim.run_until(600)
        assert fairness_slack(sim.run) <= 2 * sim.n
        assert sim.network.pending_for(sim.correct) == 0

    def test_integrity_no_double_decide_in_stream(self):
        sim = ec_sim(n=3, instances=5)
        sim.run_until(900)
        for pid in range(3):
            instances = [i for __, (i, _v) in sim.run.tagged_outputs(pid, "decide")]
            assert len(instances) == len(set(instances))

    def test_double_propose_rejected(self):
        from repro.core.ec import EcUsingOmegaLayer
        from repro.sim import ProtocolStack, Simulation
        from repro.sim.errors import ProtocolError
        from repro.detectors import OmegaDetector
        from repro.sim.failures import FailurePattern

        pattern = FailurePattern.no_failures(2)
        procs = [ProtocolStack([EcUsingOmegaLayer()]) for _ in range(2)]
        sim = Simulation(
            procs,
            failure_pattern=pattern,
            detector=OmegaDetector().history(pattern),
            timeout_interval=2,
        )
        sim.add_input(0, 0, ("propose", 1, "a"))
        sim.run_until(50)  # instance 1 decides
        sim.add_input(0, 60, ("propose", 1, "b"))
        with pytest.raises(ProtocolError):
            sim.run_until(120)

    def test_unknown_call_rejected(self):
        from repro.core.ec import EcUsingOmegaLayer
        from repro.sim.context import Context
        from repro.sim.errors import ProtocolError
        from repro.sim.stack import LayerContext, ProtocolStack

        stack = ProtocolStack([EcUsingOmegaLayer()])
        stack.attach(0, 2)
        ctx = LayerContext(stack, Context(pid=0, n=2, time=0, fd_value=0), 0)
        with pytest.raises(ProtocolError):
            stack.layers[0].on_call(ctx, ("weird",))


def test_the_cheapest_cell_kills_the_ec_that_decides_the_first_proposal(
    monkeypatch,
):
    register_mutants(monkeypatch)
    sim = run_plan(EC_MUTANT_CELL)
    assert isinstance(sim.processes[0].layers[0], EcDecidesFirstProposal)
    report = check_ec(sim.run)
    assert not report.ok
    assert report.agreement_index > report.last_common_instance == 3
    real = check_ec(run_plan(replace(EC_MUTANT_CELL, protocol="ec")).run)
    assert real.ok and real.agreement_index == 1
