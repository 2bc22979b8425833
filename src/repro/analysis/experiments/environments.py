"""Environment experiments: EC in any environment, and the Sigma gap.

Both experiments declare an ``env`` sweep axis over the registered network
environments (:mod:`repro.sim.envs`): each axis value is an environment
*name*, resolved per cell — with the cell's own seed — via
:func:`~repro.sim.envs.make_env`, so the same crash scenarios run under
heavy-tailed delays, flapping links, or asymmetric partitions exactly like
under the fixed-delay baseline. ``generate_report`` pivots the axis into
columns (one block per environment).
"""

from __future__ import annotations

from repro.analysis.experiments.base import (
    ExperimentResult,
    _detector,
    _run_broadcast_scenario,
    experiment,
)
from repro.analysis.tables import Table
from repro.core import EcDriverLayer, EcUsingOmegaLayer
from repro.core.messages import payloads
from repro.properties import check_ec, extract_timeline
from repro.sim import FailurePattern, ProtocolStack, Simulation, make_env
from repro.suite import Axis


def claim_ec_any_environment(rows: list[dict]) -> dict[str, bool]:
    """Omega suffices for EC in any environment (Lemma 2)

    Under a detector stable from the start (``tau_omega == 0``) agreement
    holds from the first instance; under churn it starts at a later
    instance, decided no earlier than the detector stabilizes.
    """
    stable = [row for row in rows if row["tau_omega"] == 0]
    churn = [row for row in rows if row["tau_omega"] > 0]
    return {
        "stable_agrees_from_k1": bool(stable)
        and all(row["k"] == 1 for row in stable),
        "churn_agrees_after_tau_omega": bool(churn)
        and all(
            row["k"] > 1
            and row["k_time"] is not None
            and row["k_time"] >= row["tau_omega"]
            for row in churn
        ),
    }


@experiment(
    "EXP-3",
    "EC from Omega in any environment (Lemma 2)",
    claim=claim_ec_any_environment,
    group_by=("scenario", "tau_omega"),
    metrics=("k", "k_time"),
    flags=("ok",),
    cost=0.1,
    axes=(Axis("env", ("baseline", "heavy-tail", "flaky", "one-way")),),
)
def exp_ec_any_environment(
    *, seed: int = 0, env: str = "baseline"
) -> ExperimentResult:
    """EXP-3: Algorithm 4 across environments and stabilization times."""
    environment = make_env(env, seed=seed, base_delay=2)
    table = Table(
        f"EXP-3: EC from Omega in any environment (Algorithm 4), env={env}",
        ["crash scenario", "tau_Omega", "verdict", "agreement index k",
         "k decided at"],
    )
    rows: list[dict] = []
    scenarios = [
        ("crash-free n=4", 4, {}, 0),
        ("crash-free n=4, churn", 4, {}, 250),
        ("minority correct (1/3)", 3, {1: 100, 2: 140}, 0),
        ("minority correct, churn", 5, {0: 80, 1: 80, 2: 80}, 200),
        ("single survivor (1/4)", 4, {1: 60, 2: 60, 3: 60}, 0),
    ]
    for label, n, crashes, tau in scenarios:
        pattern = FailurePattern.crash(n, crashes)
        detector = _detector(pattern, tau_omega=tau, seed=seed)
        procs = [
            ProtocolStack([EcUsingOmegaLayer(), EcDriverLayer(max_instances=40)])
            for _ in range(n)
        ]
        sim = Simulation(
            procs,
            failure_pattern=pattern,
            detector=detector,
            delay_model=environment.delay,
            timeout_interval=4,
            seed=seed,
            record="outputs",  # check_ec reads the output history only
        )
        sim.run_until(3000)
        report = check_ec(sim.run, expected_instances=40)
        rows.append(
            {
                "scenario": label,
                "tau_omega": tau,
                "ok": report.ok,
                "k": report.agreement_index,
                "k_time": report.agreement_time,
            }
        )
        table.add_row(
            label,
            tau,
            report.ok,
            report.agreement_index,
            report.agreement_time if report.agreement_time is not None else "-",
        )
    return ExperimentResult("ec-any-environment", table, rows)


def claim_partition_gap(rows: list[dict]) -> dict[str, bool]:
    """Sigma is the exact gap: availability without majority

    No verdict beyond the rows: each row's ``as_expected`` flag already
    states its third of the claim (ETOB available, majority consensus
    blocked, Omega+Sigma consensus available).
    """
    return {}


@experiment(
    "EXP-8",
    "availability without a correct majority (the Sigma gap)",
    claim=claim_partition_gap,
    group_by=("protocol", "detector"),
    metrics=("delivered",),
    flags=("as_expected",),
    values=("available",),
    cost=0.17,
    # heavy-tail is left out only to keep the performance ruler's
    # report_campaign cell list fixed: every delay is at most 12x the base,
    # and Sigma learners re-test their ack sets on timeout, so nothing
    # strands a learner under it. Turning it on is a change to that cell
    # list.
    axes=(Axis("env", ("baseline", "flaky", "uniform")),),
)
def exp_partition_gap(
    *, seed: int = 0, env: str = "baseline"
) -> ExperimentResult:
    """EXP-8: crash a majority; only Omega-only ETOB and Omega+Sigma
    consensus stay available."""
    n = 5
    crashes = {0: 100, 1: 100, 2: 100}
    environment = make_env(env, seed=seed, base_delay=2)
    table = Table(
        f"EXP-8: availability after losing the majority "
        f"(3 of 5 crash at t=100), env={env}",
        ["protocol", "detector", "delivered after crash", "available"],
    )
    rows: list[dict] = []
    # The *shape* is the claim: Omega-only ETOB and Omega+Sigma consensus
    # must stay available, majority-quorum consensus must block.
    cases = [
        ("etob", "majority", "Omega", True),
        ("tob-consensus", "majority", "Omega (majority quorums)", False),
        ("tob-consensus", "sigma", "Omega + Sigma", True),
    ]
    for protocol, quorum_mode, detector_label, expected_available in cases:
        broadcasts = [(3, 200, "post-crash-1"), (4, 320, "post-crash-2")]
        sim = _run_broadcast_scenario(
            protocol,
            n=n,
            broadcasts=[(0, 10, "pre-crash")] + broadcasts,
            duration=4000,
            tau_omega=150,
            crashes=crashes,
            quorum_mode=quorum_mode,
            seed=seed,
            delay_model=environment.delay,
        )
        tl = extract_timeline(sim.run)
        survivors = (3, 4)
        delivered = sum(
            1
            for __, t, payload in [(p, t, m) for p, t, m in broadcasts]
            if all(payload in payloads(tl.final_sequence(pid)) for pid in survivors)
        )
        available = delivered == len(broadcasts)
        rows.append(
            {
                "protocol": protocol,
                "detector": detector_label,
                "delivered": delivered,
                "available": available,
                "as_expected": available == expected_available,
            }
        )
        table.add_row(
            protocol, detector_label, f"{delivered}/{len(broadcasts)}", available
        )
    return ExperimentResult("partition-gap", table, rows)
