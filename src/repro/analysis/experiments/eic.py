"""EXP-9: eventual instance consensus behaves per Appendix A (Theorem 3)."""

from __future__ import annotations

from repro.analysis.experiments.base import experiment
from repro.properties import check_eic
from repro.sim import FixedDelay, RunSpec, run_plan


def claim_eic(rows: list[dict]) -> dict[str, bool]:
    """EC and EIC are equivalent (Theorem 3, Appendix A)

    A stable detector never makes a process revise a response; churn does,
    and the revisions stay below an integrity index past the first
    instance. Deterministic: round-robin scheduling, fixed delays and the
    unseeded ``"rotate"`` detector churn leave nothing for a seed to draw.
    """
    by_scenario = {row["scenario"]: row for row in rows}
    stable, churn = by_scenario["stable Omega"], by_scenario["churn until t=300"]
    return {
        "stable_never_revises": (
            stable["revisions"] == 0 and stable["integrity_index"] == 1
        ),
        "churn_revises": churn["revisions"] > 0 and churn["integrity_index"] > 1,
    }


@experiment(
    "EXP-9",
    "EIC: finite revisions, final agreement (Appendix A)",
    claim=claim_eic,
    group_by=("scenario",),
    metrics=("revisions", "integrity_index"),
    flags=("ok",),
    cost=0.22,
)
def exp_eic() -> list[dict]:
    """EXP-9: EIC behaves per Appendix A; revisions stop after stabilization."""
    rows: list[dict] = []
    for label, tau in (("stable Omega", 0), ("churn until t=300", 300)):
        sim = run_plan(
            RunSpec(
                n=4,
                duration=3000,
                protocol="eic",
                protocol_args=(("instances", 40),),
                tau=tau,
                links=FixedDelay(2),
                timeout_interval=4,
            )
        )
        report = check_eic(sim.run, expected_instances=40)
        rows.append(
            {
                "scenario": label,
                "ok": report.ok,
                "revisions": report.total_revisions,
                "integrity_index": report.integrity_index,
            }
        )
    return rows
