"""EXP-10c: the implemented (heartbeat) Omega under partial synchrony."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.experiments.base import ExperimentResult, experiment
from repro.analysis.tables import Table
from repro.detectors.heartbeat import HeartbeatOmegaProcess
from repro.sim import FailurePattern, GstDelay, Simulation


@experiment(
    "EXP-10c",
    "heartbeat Omega stabilizes after GST",
    group_by=("gst",),
    metrics=("stabilized_at",),
    flags=("correct",),
    values=("leader",),
    cost=0.12,
)
def exp_ablation_heartbeat_gst(
    gsts: Sequence[int] = (50, 150, 300), *, seed: int = 0
) -> ExperimentResult:
    """EXP-10c: the implemented (heartbeat) Omega stabilizes after GST."""
    n = 4
    table = Table(
        "EXP-10c: heartbeat Omega under partial synchrony",
        ["GST", "leader stabilized at", "final leader", "is correct"],
    )
    rows: list[dict] = []
    for gst in gsts:
        pattern = FailurePattern.crash(n, {0: gst // 2})
        procs = [HeartbeatOmegaProcess(initial_bound=6, bound_increment=4) for _ in range(n)]
        sim = Simulation(
            procs,
            failure_pattern=pattern,
            delay_model=GstDelay(gst=gst, pre_max=40, post_delay=2, seed=seed),
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
        table.add_row(
            gst,
            last_change,
            final if final is not None else "-",
            final in pattern.correct if final is not None else False,
        )
    return ExperimentResult("ablation-heartbeat", table, rows)
