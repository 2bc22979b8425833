"""Causal-order and leader-churn experiments (EXP-6, EXP-10a)."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.experiments.base import experiment
from repro.properties import EtobMonitor, check_causal_order, check_etob
from repro.sim import RunSpec, UniformDist, run_plan


def claim_causal(rows: list[dict]) -> dict[str, bool]:
    """Causal order holds even during divergence (property 3)

    Algorithm 5 orders every checked pair causally, on a workload that
    produced pairs to check. Seeded: the seed draws the uniform link delays
    that reorder messages.
    """
    # The ablation half ("arrival order *can* break causal order") is
    # existential, not a per-seed verdict: it breaks on some seeds only.
    # tests/test_etob_variants.py::TestArrivalOrderVariant::
    # test_violates_causal_order_under_reordering pins one such run of this
    # workload.
    real = next(row for row in rows if row["variant"] == "Algorithm 5 (causal graph)")
    return {"alg5_causal_order": real["violations"] == 0 and real["pairs"] > 0}


@experiment(
    "EXP-6",
    "causal order always holds; the graph ablation can break it",
    claim=claim_causal,
    group_by=("variant",),
    metrics=("violations", "pairs"),
    flags=("etob_ok",),
    cost=0.07,
)
def exp_causal(*, seed: int = 0) -> list[dict]:
    """EXP-6: TOB-Causal-Order under churn; ablation without the causal graph."""
    n = 4
    rows: list[dict] = []
    # Reply chains under heavy network reordering: each message causally
    # depends on everything its broadcaster has seen (frontier deps), and
    # random delays let replies overtake the messages they reply to.
    inputs = tuple(
        (i % n, 15 + i * 40, ("broadcast", f"chain-{i}")) for i in range(12)
    )
    for variant, protocol in (
        ("Algorithm 5 (causal graph)", "etob"),
        ("ablation: arrival-order promote", "etob-arrival-order"),
    ):
        sim = run_plan(
            RunSpec(
                n=n,
                duration=1800,
                protocol=protocol,
                inputs=inputs,
                seed=seed,
                tau=350,
                links=UniformDist(2, 60, seed=seed),
                timeout_interval=2,
                message_batch=4,
            )
        )
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
    return rows


def claim_ablation_churn(rows: list[dict]) -> dict[str, bool]:
    """Ablation: divergence window grows with churn duration

    No churn means no divergence, and each longer churn window diverges for
    strictly more ticks. Seeded: the seed draws the uniform link delays.
    """
    ordered = sorted(rows, key=lambda row: row["tau_omega"])
    ticks = [row["total_divergence"] for row in ordered]
    return {
        "no_churn_no_divergence": all(
            row["total_divergence"] == 0 for row in rows if row["tau_omega"] == 0
        ),
        "divergence_grows_with_churn": all(a < b for a, b in zip(ticks, ticks[1:])),
    }


@experiment(
    "EXP-10a",
    "leader churn duration vs divergence",
    claim=claim_ablation_churn,
    group_by=("tau_omega",),
    metrics=("windows", "total_divergence"),
    flags=("ok",),
    cost=0.3,
)
def exp_ablation_churn(
    taus: Sequence[int] = (0, 150, 300, 600), *, seed: int = 0
) -> list[dict]:
    """EXP-10a: longer churn -> longer divergence, same final agreement."""
    n = 4
    rows: list[dict] = []
    for tau in taus:
        # Concurrent bursts under random delays: leaders promoting during the
        # churn window hold different knowledge, so their sequences genuinely
        # diverge until Omega stabilizes.
        sim = run_plan(
            RunSpec(
                n=n,
                duration=max(1500, tau * 3 + 600),
                protocol="etob",
                inputs=tuple(
                    (p, 15 + 60 * burst + p, ("broadcast", f"m{burst}.{p}"))
                    for burst in range(10)
                    for p in range(n)
                ),
                seed=seed,
                tau=tau,
                links=UniformDist(2, 50, seed=seed),
                timeout_interval=3,
                message_batch=4,
            )
        )
        # one replay serves both divergence_windows and check_etob
        monitor = EtobMonitor(sim.run.correct).replay(sim.run)
        windows = monitor.divergence_windows(sim.run.end_time)
        total = sum(end - start for start, end in windows)
        report = monitor.report()
        rows.append(
            {
                "tau_omega": tau,
                "windows": len(windows),
                "total_divergence": total,
                "ok": report.ok,
            }
        )
    return rows
