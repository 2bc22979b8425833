"""Tests for EIC (Appendix A): the native implementation and its spec."""

import pytest

from repro.properties import EicMonitor, check_eic

from tests.helpers import BUILT_KERNELS, eic_sim


class TestNativeEic:
    def test_stable_leader_no_revisions(self):
        sim = eic_sim(n=3, tau_omega=0, instances=5)
        sim.run_until(900)
        report = check_eic(sim.run, expected_instances=5)
        assert report.ok, report.violations
        assert report.total_revisions == 0
        assert report.integrity_index == 1

    def test_revisions_are_finite_and_agreement_final(self):
        sim = eic_sim(n=4, tau_omega=250, instances=40, seed=2)
        sim.run_until(2500)
        report = check_eic(sim.run, expected_instances=40)
        assert report.termination_ok, report.violations
        assert report.agreement_ok, report.violations
        assert report.validity_ok, report.violations

    def test_minority_correct_environment(self):
        sim = eic_sim(n=5, crashes={0: 80, 1: 80, 2: 80}, tau_omega=150, instances=10)
        sim.run_until(2500)
        report = check_eic(sim.run, expected_instances=10)
        assert report.termination_ok, report.violations
        assert report.agreement_ok, report.violations

    def test_revision_counter_tracks_layer_state(self):
        sim = eic_sim(n=3, tau_omega=400, instances=60, seed=7)
        sim.run_until(3000)
        layer_revisions = sum(
            sim.processes[pid].layer("eic-omega").revisions for pid in range(3)
        )
        report = check_eic(sim.run, expected_instances=60)
        assert report.total_revisions == layer_revisions


#: The native-EIC cells above: (eic_sim arguments, horizon, instances).
CELLS = [
    (dict(n=3, tau_omega=0, instances=5), 900, 5),
    (dict(n=4, tau_omega=250, instances=40, seed=2), 2500, 40),
    (dict(n=5, crashes={0: 80, 1: 80, 2: 80}, tau_omega=150, instances=10), 2500, 10),
    (dict(n=3, tau_omega=400, instances=60, seed=7), 3000, 60),
]


@pytest.mark.parametrize("kernel", BUILT_KERNELS)
@pytest.mark.parametrize("args,horizon,instances", CELLS)
def test_the_live_monitor_equals_the_replay(args, horizon, instances, kernel):
    # The monitor rides a record="metrics" run, which keeps no outputs at
    # all; its report must equal check_eic's replay of the retained run.
    sim = eic_sim(**args, record="outputs")
    sim.run_until(horizon)
    replay = check_eic(sim.run, expected_instances=instances)
    monitor = EicMonitor(sim.run.correct, expected_instances=instances)
    live = eic_sim(**args, record="metrics", kernel=kernel, observers=[monitor])
    live.run_until(horizon)
    assert live.run.output_history == {}
    assert monitor.report() == replay
