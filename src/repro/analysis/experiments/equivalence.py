"""EXP-2: the EC = ETOB equivalence (Theorem 1) on transformation stacks."""

from __future__ import annotations

from repro.analysis.experiments.base import (
    ExperimentResult,
    _detector,
    _run_broadcast_scenario,
    experiment,
)
from repro.analysis.metrics import message_counts
from repro.analysis.tables import Table
from repro.suite import Axis
from repro.core import EcDriverLayer, EcUsingOmegaLayer, EtobLayer
from repro.core.transformations import EtobToEcLayer
from repro.properties import check_ec, check_etob
from repro.sim import FailurePattern, FixedDelay, ProtocolStack, Simulation


def claim_equivalence(rows: list[dict]) -> dict[str, bool]:
    """EC and ETOB are inter-transformable (Theorem 1, Algs 1-2)

    Each stack passing its full specification is the ``ok`` flag; across
    rows, the EC->ETOB transformation pays for its generality with more
    traffic than native Algorithm 5.
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
def exp_equivalence(*, n: int = 4, seed: int = 0) -> ExperimentResult:
    """EXP-2: the transformation stacks satisfy the target specifications."""
    table = Table(
        "EXP-2: Theorem 1 equivalence (checkers on transformation stacks)",
        ["stack", "spec", "verdict", "tau / k", "messages"],
    )
    rows: list[dict] = []
    broadcasts = [(p, 20 + 50 * i, f"m{i}.{p}") for i in range(3) for p in range(n)]

    for protocol, label in (("etob", "ETOB (Alg 5, native)"), ("ec-etob", "EC->ETOB (Alg 1 over Alg 4)")):
        sim = _run_broadcast_scenario(
            protocol,
            n=n,
            broadcasts=broadcasts,
            duration=2500,
            tau_omega=200,
            seed=seed,
        )
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
        table.add_row(label, "ETOB", report.ok, f"tau={report.tau}", counts["sent"])

    # EC built from ETOB (Algorithm 2 over Algorithm 5).
    pattern = FailurePattern.no_failures(n)
    detector = _detector(pattern, tau_omega=200, seed=seed)
    procs = [
        ProtocolStack([EtobLayer(), EtobToEcLayer(), EcDriverLayer(max_instances=25)])
        for _ in range(n)
    ]
    sim = Simulation(
        procs,
        failure_pattern=pattern,
        detector=detector,
        delay_model=FixedDelay(2),
        timeout_interval=2,
        seed=seed,
        message_batch=4,
        record="outputs",  # check_ec reads the output history only
    )
    sim.run_until(6000)
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
    table.add_row(
        "ETOB->EC (Alg 2 over Alg 5)",
        "EC",
        ec.ok,
        f"k={ec.agreement_index}",
        counts["sent"],
    )

    # Native EC for reference. Algorithm 4 burns through instances much
    # faster than the ETOB-based stack, so it needs more of them for a tail
    # to start after Omega stabilizes.
    procs = [
        ProtocolStack([EcUsingOmegaLayer(), EcDriverLayer(max_instances=80)])
        for _ in range(n)
    ]
    detector = _detector(pattern, tau_omega=200, seed=seed)
    sim = Simulation(
        procs,
        failure_pattern=pattern,
        detector=detector,
        delay_model=FixedDelay(2),
        timeout_interval=2,
        seed=seed,
        message_batch=4,
        record="outputs",
    )
    sim.run_until(6000)
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
    table.add_row(
        "EC (Alg 4, native)", "EC", ec.ok, f"k={ec.agreement_index}", counts["sent"]
    )
    return ExperimentResult("equivalence", table, rows)
