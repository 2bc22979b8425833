"""Integration: the fully *implemented* stack — no oracle anywhere.

Heartbeat Omega (from message timing) + GST network (partial synchrony) +
Algorithm 5 on top, wired through ``omega_source``. This is the
deployment-shaped configuration: everything the protocol knows about
failures it learned from heartbeats.
"""

from repro.core import EtobLayer
from repro.core.ec import EcUsingOmegaLayer
from repro.core.drivers import EcDriverLayer
from repro.detectors.heartbeat import HeartbeatOmegaLayer
from repro.properties import check_causal_order, check_ec, check_etob
from repro.replication import KvStore, ReplicaLayer
from repro.sim import AgeGstDist, FailurePattern, ProtocolStack, Simulation


def implemented_etob_stack():
    heartbeat = HeartbeatOmegaLayer(initial_bound=10, bound_increment=6)
    etob = EtobLayer(omega_source=heartbeat.omega_source())
    return ProtocolStack([heartbeat, etob])


def implemented_ec_stack(instances=6):
    heartbeat = HeartbeatOmegaLayer(initial_bound=10, bound_increment=6)
    ec = EcUsingOmegaLayer(omega_source=heartbeat.omega_source())
    return ProtocolStack([heartbeat, ec, EcDriverLayer(max_instances=instances)])


class TestImplementedEtob:
    def test_etob_over_heartbeat_omega(self):
        n = 4
        pattern = FailurePattern.no_failures(n)
        sim = Simulation(
            [implemented_etob_stack() for _ in range(n)],
            failure_pattern=pattern,
            delay_model=AgeGstDist(gst=150, pre_max=30, post_delay=2, seed=3),
            timeout_interval=3,
            message_batch=4,
        )
        for i, (pid, t) in enumerate([(0, 20), (1, 90), (2, 250), (3, 400)]):
            sim.add_input(pid, t, ("broadcast", f"m{i}"))
        sim.run_until(1500)
        report = check_etob(sim.run)
        assert report.ok, report.violations
        causal = check_causal_order(sim.run)
        assert causal.ok, causal.violations

    def test_etob_survives_leader_crash(self):
        n = 4
        pattern = FailurePattern.crash(n, {0: 300})
        sim = Simulation(
            [implemented_etob_stack() for _ in range(n)],
            failure_pattern=pattern,
            delay_model=AgeGstDist(gst=100, pre_max=20, post_delay=2, seed=1),
            timeout_interval=3,
            message_batch=4,
        )
        for i, (pid, t) in enumerate([(1, 50), (2, 350), (3, 500)]):
            sim.add_input(pid, t, ("broadcast", f"m{i}"))
        sim.run_until(2000)
        report = check_etob(sim.run)
        assert report.ok, report.violations


class TestImplementedEc:
    def test_ec_over_heartbeat_omega(self):
        n = 3
        pattern = FailurePattern.no_failures(n)
        sim = Simulation(
            [implemented_ec_stack(instances=30) for _ in range(n)],
            failure_pattern=pattern,
            delay_model=AgeGstDist(gst=150, pre_max=30, post_delay=2, seed=7),
            timeout_interval=3,
            message_batch=4,
        )
        sim.run_until(2500)
        report = check_ec(sim.run, expected_instances=30)
        assert report.termination_ok, report.violations
        assert report.integrity_ok and report.validity_ok
        assert report.agreement_index <= 30


class TestImplementedReplication:
    def test_kv_store_no_oracle(self):
        n = 3
        pattern = FailurePattern.no_failures(n)

        def stack():
            heartbeat = HeartbeatOmegaLayer(initial_bound=10, bound_increment=6)
            etob = EtobLayer(omega_source=heartbeat.omega_source())
            return ProtocolStack([heartbeat, etob, ReplicaLayer(KvStore())])

        sim = Simulation(
            [stack() for _ in range(n)],
            failure_pattern=pattern,
            delay_model=AgeGstDist(gst=120, pre_max=25, post_delay=2, seed=4),
            timeout_interval=3,
            message_batch=4,
        )
        sim.add_input(0, 30, ("invoke", ("set", "x", 1)))
        sim.add_input(1, 200, ("invoke", ("set", "y", 2)))
        sim.add_input(2, 420, ("invoke", ("cas", "x", 1, 3)))
        sim.run_until(1500)
        states = [sim.processes[p].layer("replica").state for p in range(n)]
        assert states[0] == states[1] == states[2] == {"x": 3, "y": 2}
