"""Delivery-latency experiments: communication steps and promote-period ablation."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.experiments.base import experiment
from repro.analysis.metrics import latency_report, message_counts
from repro.sim import FixedDelay, RunSpec, run_plan


def claim_comm_steps(rows: list[dict]) -> dict[str, bool]:
    """ETOB delivers in 2 communication steps; strong TOB needs 3

    Each protocol's mean lands in its band (ETOB ~2, Paxos TOB ~3, the
    Chandra-Toueg baseline ~5), Paxos TOB trails ETOB by one message delay
    at every ``n``, and every broadcast was delivered. Deterministic: the
    step counts are a property of a round-robin, fixed-delay run under a
    detector stable from time 0, so no seed reaches them.
    """
    steps = {(row["n"], row["protocol"]): row["mean_steps"] for row in rows}

    def band(protocol: str, low: float, high: float) -> bool:
        means = [mean for (__, p), mean in steps.items() if p == protocol]
        return bool(means) and all(
            mean is not None and low <= mean <= high for mean in means
        )

    def gap(n: int) -> bool:
        etob, tob = steps.get((n, "etob")), steps.get((n, "tob-consensus"))
        return etob is not None and tob is not None and 0.6 <= tob - etob <= 1.6

    return {
        "etob_2_steps": band("etob", 1.5, 2.4),
        "paxos_tob_3_steps": band("tob-consensus", 2.5, 3.6),
        "ct_tob_5_steps": band("tob-ct", 4.4, 5.8),
        "one_delay_gap": all(gap(n) for n, __ in steps),
        "all_delivered": all(row["undelivered"] == 0 for row in rows),
    }


@experiment(
    "EXP-1",
    "stable-delivery latency in communication steps",
    claim=claim_comm_steps,
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
) -> list[dict]:
    """EXP-1: stable-delivery latency in communication steps, stable leader.

    Paper claim: ETOB delivers in the optimal two steps; strong TOB needs
    three ([22]). A large network delay dominates timer noise so the
    steps estimate is crisp. Early messages are skipped for the consensus
    baseline (its first decision amortizes the Paxos prepare phase).
    """
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
            sim = run_plan(
                RunSpec(
                    n=n,
                    duration=start + (messages + 12) * 8 * delay,
                    protocol=protocol,
                    inputs=tuple(
                        (p, t, ("broadcast", m)) for p, t, m in warmup + spaced
                    ),
                    tau=0,
                    links=FixedDelay(delay),
                    timeout_interval=2,
                    message_batch=4,
                )
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
    return rows


def claim_ablation_promote_period(rows: list[dict]) -> dict[str, bool]:
    """Ablation: promote period trades chatter for latency

    From the shortest to the longest promote period, message volume falls
    and mean delivery latency does not. Deterministic: round-robin
    scheduling, fixed delays and a detector stable from time 0 leave
    nothing for a seed to draw.
    """
    shortest = min(rows, key=lambda row: row["period"])
    longest = max(rows, key=lambda row: row["period"])
    fast, slow = shortest["mean_ticks"], longest["mean_ticks"]
    return {
        "volume_falls": longest["sent"] < shortest["sent"],
        "latency_rises": fast is not None and slow is not None and slow >= fast,
    }


@experiment(
    "EXP-10b",
    "promote period vs delivery latency",
    claim=claim_ablation_promote_period,
    group_by=("period",),
    metrics=("mean_ticks", "sent"),
    flags=("delivered_ok",),
    cost=0.14,
)
def exp_ablation_promote_period(
    periods: Sequence[int] = (2, 4, 8, 16),
) -> list[dict]:
    """EXP-10b: the leader's promote period trades chatter for latency."""
    n, delay = 4, 30
    rows: list[dict] = []
    for period in periods:
        sim = run_plan(
            RunSpec(
                n=n,
                duration=40 * delay + 9 * 6 * delay,
                protocol="etob",
                inputs=tuple(
                    (1 + i % (n - 1), (40 + 6 * i) * delay, ("broadcast", f"m{i}"))
                    for i in range(5)
                ),
                tau=0,
                links=FixedDelay(delay),
                timeout_interval=period,
                message_batch=4,
            )
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
    return rows
