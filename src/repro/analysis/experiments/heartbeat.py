"""EXP-10c: the implemented (heartbeat) Omega under partial synchrony."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.experiments.base import experiment
from repro.detectors.heartbeat import HeartbeatOmegaProcess
from repro.sim import AgeGstDist, FailurePattern, Simulation


def claim_ablation_heartbeat_gst(rows: list[dict]) -> dict[str, bool]:
    """Ablation: heartbeat Omega stabilizes shortly after GST

    The correct final leader is the flag; the verdict is that it is
    reached within a few timeout escalations: by GST + 200 ticks. Seeded:
    the seed draws the pre-GST link delays.
    """
    return {
        "stable_by_gst_plus_200": all(
            row["stabilized_at"] <= row["gst"] + 200 for row in rows
        ),
    }


@experiment(
    "EXP-10c",
    "heartbeat Omega stabilizes after GST",
    claim=claim_ablation_heartbeat_gst,
    group_by=("gst",),
    metrics=("stabilized_at",),
    flags=("correct",),
    values=("leader",),
    cost=0.12,
)
def exp_ablation_heartbeat_gst(
    gsts: Sequence[int] = (50, 150, 300), *, seed: int = 0
) -> list[dict]:
    """EXP-10c: the implemented (heartbeat) Omega stabilizes after GST."""
    n = 4
    rows: list[dict] = []
    for gst in gsts:
        pattern = FailurePattern.crash(n, {0: gst // 2})
        procs = [HeartbeatOmegaProcess(initial_bound=6, bound_increment=4) for _ in range(n)]
        sim = Simulation(
            procs,
            failure_pattern=pattern,
            delay_model=AgeGstDist(gst=gst, pre_max=40, post_delay=2, seed=seed),
            timeout_interval=3,
            seed=seed,
            message_batch=4,
        )
        sim.run_until(gst * 3 + 600)
        finals: dict[int, int | None] = {}
        last_change = 0
        for pid in pattern.correct:
            events = sim.run.tagged_outputs(pid, "leader")
            finals[pid] = events[-1][1][0] if events else None
            if events:
                last_change = max(last_change, events[-1][0])
        agreed = len(set(finals.values())) == 1
        final = next(iter(set(finals.values()))) if agreed else None
        rows.append(
            {
                "gst": gst,
                "stabilized_at": last_change,
                "leader": final,
                "correct": final in pattern.correct if final is not None else False,
            }
        )
    return rows
