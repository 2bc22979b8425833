"""Model edge cases: quiescence, and the Lemma 3 bound under
random (non-FIFO) delays with Delta_c read as the *longest* delay."""

from repro.core import EtobLayer
from repro.detectors import OmegaDetector
from repro.properties import check_etob
from repro.sim import (
    FailurePattern,
    FixedDelay,
    Process,
    ProtocolStack,
    Simulation,
    UniformDist,
)


class TestQuiescence:
    def test_quiescent_run_with_grace(self):
        class Once(Process):
            def __init__(self):
                self.sent = False

            def on_timeout(self, ctx):
                if not self.sent:
                    self.sent = True
                    ctx.send_all("only", include_self=False)

        sim = Simulation(
            [Once(), Once()], delay_model=FixedDelay(3), timeout_interval=4
        )
        sim.run_until(10)  # let the timers fire and the sends happen
        sim.run_until_quiescent(grace=2)
        assert sim.network.in_transit() == 0
        assert sim.network.delivered_count == 2


class TestLemma3BoundRandomDelays:
    def test_bound_with_longest_delay(self):
        # Delta_c is "the longest communication delay between two correct
        # processes" — with random delays in [2, hi], the bound must use hi.
        n, timeout, hi = 4, 3, 25
        tau_omega = 200
        pattern = FailurePattern.no_failures(n)
        detector = OmegaDetector(
            stabilization_time=tau_omega, pre_behavior="rotate"
        ).history(pattern, seed=5)
        sim = Simulation(
            [ProtocolStack([EtobLayer()]) for _ in range(n)],
            failure_pattern=pattern,
            detector=detector,
            delay_model=UniformDist(2, hi, seed=5),
            timeout_interval=timeout,
            seed=5,
            message_batch=4,
        )
        for i in range(8):
            sim.add_input(i % n, 15 + i * 30, ("broadcast", f"m{i}"))
        sim.run_until(1500)
        report = check_etob(sim.run)
        assert report.ok, report.violations
        bound = tau_omega + (timeout + n) + hi
        assert report.tau <= bound, (report.tau, bound)
