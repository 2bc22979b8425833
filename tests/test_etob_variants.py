"""Tests for the ablation variant of Algorithm 5 (arrival-order promotion),
registered as the protocol ``etob-arrival-order``."""

from repro.core.etob_variants import ArrivalOrderEtobLayer
from repro.core.messages import payloads
from repro.properties import check_causal_order, check_etob, extract_timeline
from repro.sim import FixedDelay, RunSpec, UniformDist, build_simulation


def variant_sim(
    n=4, tau_omega=0, delay_model=FixedDelay(2), seed=0, protocol="etob-arrival-order"
):
    return build_simulation(
        RunSpec(
            n=n,
            duration=0,
            protocol=protocol,
            seed=seed,
            tau=tau_omega,
            links=delay_model,
            timeout_interval=2,
            message_batch=4,
            record="full",
        )
    )


class TestArrivalOrderVariant:
    def test_still_satisfies_etob_without_reordering(self):
        # Without network reordering the ablation is a perfectly fine ETOB
        # (causal order happens to coincide with arrival order).
        sim = variant_sim(n=3, tau_omega=0)
        for i, (pid, t) in enumerate([(0, 10), (1, 60), (2, 120)]):
            sim.add_input(pid, t, ("broadcast", f"m{i}"))
        sim.run_until(600)
        assert isinstance(sim.processes[0].layers[0], ArrivalOrderEtobLayer)
        report = check_etob(sim.run)
        assert report.ok, report.violations

    def test_converges_to_identical_sequences(self):
        sim = variant_sim(n=4, tau_omega=150, seed=3)
        for i in range(6):
            sim.add_input(i % 4, 15 + i * 30, ("broadcast", f"m{i}"))
        sim.run_until(900)
        tl = extract_timeline(sim.run)
        finals = {payloads(tl.final_sequence(pid)) for pid in range(4)}
        assert len(finals) == 1

    def test_violates_causal_order_under_reordering(self):
        # The reason this variant exists: with random delays, replies overtake
        # their antecedents and the arrival order inverts causality. Seed 1
        # inverts it (21 violations); seeds 0, 2 and 3 happen not to.
        sim = variant_sim(
            n=4,
            tau_omega=350,
            delay_model=UniformDist(2, 60, seed=1),
            seed=1,
        )
        for i in range(12):
            sim.add_input(i % 4, 15 + i * 40, ("broadcast", f"chain-{i}"))
        sim.run_until(1800)
        causal = check_causal_order(sim.run)
        assert not causal.ok, "expected the ablation to break causal order"

    def test_real_algorithm_keeps_causal_order_same_workload(self):
        sim = variant_sim(
            n=4,
            tau_omega=350,
            delay_model=UniformDist(2, 60, seed=1),
            seed=1,
            protocol="etob",
        )
        for i in range(12):
            sim.add_input(i % 4, 15 + i * 40, ("broadcast", f"chain-{i}"))
        sim.run_until(1800)
        causal = check_causal_order(sim.run)
        assert causal.ok, causal.violations
