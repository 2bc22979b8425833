"""EXP-2: the EC = ETOB equivalence (Theorem 1) on transformation stacks."""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.experiments.base import experiment
from repro.analysis.metrics import message_counts
from repro.suite import Axis
from repro.properties import check_ec, check_etob
from repro.sim import FixedDelay, RunSpec, run_plan


def claim_equivalence(rows: list[dict]) -> dict[str, bool]:
    """EC and ETOB are inter-transformable (Theorem 1, Algs 1-2)

    Each stack passing its full specification is the ``ok`` flag; across
    rows, the EC->ETOB transformation pays for its generality with more
    traffic than native Algorithm 5. Deterministic: round-robin
    scheduling, fixed delays and the unseeded ``"rotate"`` detector churn
    leave nothing for a seed to draw.
    """
    sent = {row["stack"]: row["sent"] for row in rows}
    return {
        "transformation_costs_traffic": (
            sent["EC->ETOB (Alg 1 over Alg 4)"] > sent["ETOB (Alg 5, native)"]
        ),
    }


@experiment(
    "EXP-2",
    "Theorem 1 equivalence on transformation stacks",
    claim=claim_equivalence,
    group_by=("stack",),
    metrics=("tau", "k", "sent"),
    flags=("ok",),
    cost=0.55,
    axes=(Axis("n", (3, 4, 5)),),
)
def exp_equivalence(*, n: int = 4) -> list[dict]:
    """EXP-2: the transformation stacks satisfy the target specifications."""
    rows: list[dict] = []
    base = RunSpec(
        n=n,
        duration=2500,
        inputs=tuple(
            (p, 20 + 50 * i, ("broadcast", f"m{i}.{p}"))
            for i in range(3)
            for p in range(n)
        ),
        tau=200,
        links=FixedDelay(2),
        timeout_interval=2,
        message_batch=4,
    )

    for protocol, label in (("etob", "ETOB (Alg 5, native)"), ("ec-etob", "EC->ETOB (Alg 1 over Alg 4)")):
        sim = run_plan(replace(base, protocol=protocol))
        report = check_etob(sim.run)
        counts = message_counts(sim)
        rows.append(
            {
                "stack": label,
                "ok": report.ok,
                "tau": report.tau,
                "sent": counts["sent"],
            }
        )

    # EC built from ETOB (Algorithm 2 over Algorithm 5).
    ec_base = replace(base, duration=6000, inputs=())
    sim = run_plan(
        replace(ec_base, protocol="etob-ec", protocol_args=(("instances", 25),))
    )
    ec = check_ec(sim.run, expected_instances=25)
    counts = message_counts(sim)
    rows.append(
        {
            "stack": "ETOB->EC (Alg 2 over Alg 5)",
            "ok": ec.ok,
            "k": ec.agreement_index,
            "sent": counts["sent"],
        }
    )

    # Native EC for reference. Algorithm 4 burns through instances much
    # faster than the ETOB-based stack, so it needs more of them for a tail
    # to start after Omega stabilizes.
    sim = run_plan(replace(ec_base, protocol="ec", protocol_args=(("instances", 80),)))
    ec = check_ec(sim.run, expected_instances=80)
    counts = message_counts(sim)
    rows.append(
        {
            "stack": "EC (Alg 4, native)",
            "ok": ec.ok,
            "k": ec.agreement_index,
            "sent": counts["sent"],
        }
    )
    return rows
