"""EXP-9: eventual instance consensus behaves per Appendix A (Theorem 3)."""

from __future__ import annotations

from repro.analysis.experiments.base import (
    ExperimentResult,
    _detector,
    experiment,
)
from repro.analysis.tables import Table
from repro.core import EicDriverLayer, EicUsingOmegaLayer
from repro.properties import check_eic
from repro.sim import FailurePattern, FixedDelay, ProtocolStack, Simulation


@experiment(
    "EXP-9",
    "EIC: finite revisions, final agreement (Appendix A)",
    group_by=("scenario",),
    metrics=("revisions", "integrity_index"),
    flags=("ok",),
    cost=0.22,
)
def exp_eic(*, seed: int = 0) -> ExperimentResult:
    """EXP-9: EIC behaves per Appendix A; revisions stop after stabilization."""
    table = Table(
        "EXP-9: EIC (Appendix A): revisions are finite, final agreement holds",
        ["scenario", "verdict", "revisions", "integrity index"],
    )
    rows: list[dict] = []
    for label, tau in (("stable Omega", 0), ("churn until t=300", 300)):
        n = 4
        pattern = FailurePattern.no_failures(n)
        detector = _detector(pattern, tau_omega=tau, seed=seed)
        procs = [
            ProtocolStack([EicUsingOmegaLayer(), EicDriverLayer(max_instances=40)])
            for _ in range(n)
        ]
        sim = Simulation(
            procs,
            failure_pattern=pattern,
            detector=detector,
            delay_model=FixedDelay(2),
            timeout_interval=4,
            seed=seed,
            record="outputs",  # check_eic reads the output history only
        )
        sim.run_until(3000)
        report = check_eic(sim.run, expected_instances=40)
        rows.append(
            {
                "scenario": label,
                "ok": report.ok,
                "revisions": report.total_revisions,
                "integrity_index": report.integrity_index,
            }
        )
        table.add_row(
            label, report.ok, report.total_revisions, report.integrity_index
        )
    return ExperimentResult("eic", table, rows)
