"""Delivery-latency experiments: communication steps and promote-period ablation."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.experiments.base import (
    ExperimentResult,
    _run_broadcast_scenario,
    experiment,
)
from repro.analysis.metrics import latency_report, message_counts
from repro.analysis.tables import Table


@experiment(
    "EXP-1",
    "stable-delivery latency in communication steps",
    group_by=("n", "protocol"),
    metrics=("mean_steps", "max_steps", "undelivered"),
    values=("paper_steps",),
    flags=("steps_ok",),
    cost=1.3,
)
def exp_comm_steps(
    ns: Sequence[int] = (3, 5, 7),
    *,
    delay: int = 60,
    messages: int = 6,
    seed: int = 0,
) -> ExperimentResult:
    """EXP-1: stable-delivery latency in communication steps, stable leader.

    Paper claim: ETOB delivers in the optimal two steps; strong TOB needs
    three ([22]). A large network delay dominates timer noise so the
    steps estimate is crisp. Early messages are skipped for the consensus
    baseline (its first decision amortizes the Paxos prepare phase).
    """
    table = Table(
        "EXP-1: stable-delivery latency (communication steps), stable leader",
        ["n", "protocol", "mean steps", "max steps", "paper"],
    )
    rows: list[dict] = []
    for n in ns:
        warmup = [(0, 5, "warm-0"), (1, 9, "warm-1")]
        start = 40 * delay
        # Broadcast from non-leader processes only: the paper's two-step path
        # is update-to-leader then promote; the leader's own broadcasts skip
        # the first hop and would skew the mean below 2.
        spaced = [
            (1 + i % (n - 1), start + i * 8 * delay, f"msg-{i}")
            for i in range(messages)
        ]
        # tob-ct: the original [3] construction as a non-optimal extra
        # baseline — one diffusion step plus four CT phases (estimate,
        # proposal, ack, decide) = 5 steps per delivery.
        for protocol, paper_steps in (
            ("etob", 2),
            ("tob-consensus", 3),
            ("tob-ct", 5),
        ):
            sim = _run_broadcast_scenario(
                protocol,
                n=n,
                broadcasts=warmup + spaced,
                duration=start + (messages + 12) * 8 * delay,
                delay=delay,
                timeout=2,
                tau_omega=0,
                seed=seed,
            )
            report = latency_report(sim.run, delay_ticks=delay, timer_ticks=n)
            measured = [
                l for l in report.latencies if l.broadcast_time >= start
            ]
            report.latencies = measured
            mean_steps = report.mean_steps()
            rows.append(
                {
                    "n": n,
                    "protocol": protocol,
                    "mean_steps": mean_steps,
                    "max_steps": report.max_steps(),
                    "paper_steps": paper_steps,
                    "undelivered": report.undelivered_count,
                    # The verdict the report summary asserts: everything
                    # delivered, and the measured step count rounds to the
                    # paper's claim.
                    "steps_ok": (
                        report.undelivered_count == 0
                        and mean_steps is not None
                        and round(mean_steps) == paper_steps
                    ),
                }
            )
            table.add_row(
                n,
                protocol,
                report.mean_steps() or float("nan"),
                report.max_steps() or float("nan"),
                paper_steps,
            )
    return ExperimentResult("comm-steps", table, rows)


@experiment(
    "EXP-10b",
    "promote period vs delivery latency",
    group_by=("period",),
    metrics=("mean_ticks", "sent"),
    flags=("delivered_ok",),
    cost=0.14,
)
def exp_ablation_promote_period(
    periods: Sequence[int] = (2, 4, 8, 16), *, seed: int = 0
) -> ExperimentResult:
    """EXP-10b: the leader's promote period trades chatter for latency."""
    n, delay = 4, 30
    table = Table(
        "EXP-10b: promote period vs delivery latency (ETOB, stable leader)",
        ["timeout interval", "mean latency (ticks)", "messages sent"],
    )
    rows: list[dict] = []
    for period in periods:
        broadcasts = [
            (1 + i % (n - 1), 40 * delay + i * 6 * delay, f"m{i}") for i in range(5)
        ]
        sim = _run_broadcast_scenario(
            "etob",
            n=n,
            broadcasts=broadcasts,
            duration=40 * delay + 9 * 6 * delay,
            delay=delay,
            timeout=period,
            tau_omega=0,
            seed=seed,
        )
        report = latency_report(sim.run, delay_ticks=delay)
        counts = message_counts(sim)
        rows.append(
            {
                "period": period,
                "mean_ticks": report.mean_ticks(),
                "sent": counts["sent"],
                "delivered_ok": report.undelivered_count == 0,
            }
        )
        table.add_row(
            period,
            report.mean_ticks() or float("nan"),
            counts["sent"],
        )
    return ExperimentResult("ablation-promote-period", table, rows)
