"""Causal-order and leader-churn experiments (EXP-6, EXP-10a)."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.experiments.base import (
    ExperimentResult,
    _detector,
    experiment,
)
from repro.analysis.metrics import divergence_windows
from repro.analysis.tables import Table
from repro.core import EtobLayer
from repro.core.etob_variants import ArrivalOrderEtobLayer
from repro.properties import check_causal_order, check_etob
from repro.sim import FailurePattern, ProtocolStack, Simulation, UniformRandomDelay


@experiment(
    "EXP-6",
    "causal order always holds; the graph ablation breaks it",
    group_by=("variant",),
    metrics=("violations", "pairs"),
    flags=("etob_ok",),
    cost=0.07,
)
def exp_causal(*, seed: int = 0) -> ExperimentResult:
    """EXP-6: TOB-Causal-Order under churn; ablation without the causal graph."""
    n = 4
    table = Table(
        "EXP-6: causal order during divergence (and graph ablation)",
        ["variant", "causal violations", "pairs checked", "etob ok"],
    )
    rows: list[dict] = []
    # Reply chains under heavy network reordering: each message causally
    # depends on everything its broadcaster has seen (frontier deps), and
    # random delays let replies overtake the messages they reply to.
    broadcasts = [(i % n, 15 + i * 40, f"chain-{i}") for i in range(12)]
    for variant, factory in (
        ("Algorithm 5 (causal graph)", lambda: ProtocolStack([EtobLayer()])),
        (
            "ablation: arrival-order promote",
            lambda: ProtocolStack([ArrivalOrderEtobLayer()]),
        ),
    ):
        pattern = FailurePattern.no_failures(n)
        detector = _detector(pattern, tau_omega=350, seed=seed)
        sim = Simulation(
            [factory() for _ in range(n)],
            failure_pattern=pattern,
            detector=detector,
            delay_model=UniformRandomDelay(2, 60, seed=seed),
            timeout_interval=2,
            seed=seed,
            message_batch=4,
            record="outputs",  # both checkers read the delivery timeline only
        )
        for pid, t, payload in broadcasts:
            sim.add_input(pid, t, ("broadcast", payload))
        sim.run_until(1800)
        causal = check_causal_order(sim.run)
        etob = check_etob(sim.run)
        rows.append(
            {
                "variant": variant,
                "violations": len(causal.violations),
                "pairs": causal.pairs_checked,
                "etob_ok": etob.ok,
            }
        )
        table.add_row(variant, len(causal.violations), causal.pairs_checked, etob.ok)
    return ExperimentResult("causal", table, rows)


@experiment(
    "EXP-10a",
    "leader churn duration vs divergence",
    group_by=("tau_omega",),
    metrics=("windows", "total_divergence"),
    flags=("ok",),
    cost=0.3,
)
def exp_ablation_churn(
    taus: Sequence[int] = (0, 150, 300, 600), *, seed: int = 0
) -> ExperimentResult:
    """EXP-10a: longer churn -> longer divergence, same final agreement."""
    n = 4
    table = Table(
        "EXP-10a: leader churn duration vs divergence",
        ["tau_Omega", "divergence windows", "total divergence ticks", "final ok"],
    )
    rows: list[dict] = []
    for tau in taus:
        # Concurrent bursts under random delays: leaders promoting during the
        # churn window hold different knowledge, so their sequences genuinely
        # diverge until Omega stabilizes.
        broadcasts = [
            (p, 15 + 60 * burst + p, f"m{burst}.{p}")
            for burst in range(10)
            for p in range(n)
        ]
        pattern = FailurePattern.no_failures(n)
        detector = _detector(pattern, tau_omega=tau, seed=seed)
        sim = Simulation(
            [ProtocolStack([EtobLayer()]) for _ in range(n)],
            failure_pattern=pattern,
            detector=detector,
            delay_model=UniformRandomDelay(2, 50, seed=seed),
            timeout_interval=3,
            seed=seed,
            message_batch=4,
            record="outputs",  # divergence_windows and check_etob are timeline-based
        )
        for pid, t, payload in broadcasts:
            sim.add_input(pid, t, ("broadcast", payload))
        sim.run_until(max(1500, tau * 3 + 600))
        windows = divergence_windows(sim.run)
        total = sum(end - start for start, end in windows)
        report = check_etob(sim.run)
        rows.append(
            {
                "tau_omega": tau,
                "windows": len(windows),
                "total_divergence": total,
                "ok": report.ok,
            }
        )
        table.add_row(tau, len(windows), total, report.ok)
    return ExperimentResult("ablation-churn", table, rows)
