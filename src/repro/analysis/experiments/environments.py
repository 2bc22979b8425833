"""Environment experiments: EC in any environment, and the Sigma gap.

Both experiments declare an ``env`` sweep axis over the registered network
environments (:mod:`repro.sim.envs`): each axis value is an environment
*name*, resolved per cell — with the cell's own seed — via
:func:`~repro.sim.envs.env_links`, so the same crash scenarios run under
heavy-tailed delays, flapping links, or asymmetric partitions exactly like
under the fixed-delay baseline. ``generate_report`` pivots the axis into
columns (one block per environment).
"""

from __future__ import annotations

from typing import Any

from repro.analysis.experiments.base import experiment
from repro.core.messages import payloads
from repro.properties import check_ec, extract_timeline
from repro.sim import RunSpec, env_links, run_plan
from repro.suite import Axis


def claim_ec_any_environment(rows: list[dict]) -> dict[str, bool]:
    """Omega suffices for EC in any environment (Lemma 2)

    Under a detector stable from the start (``tau_omega == 0``) agreement
    holds from the first instance; under churn it starts at a later
    instance, decided no earlier than the detector stabilizes. Seeded: the
    seed draws the environment's link delays.
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
) -> list[dict]:
    """EXP-3: Algorithm 4 across environments and stabilization times."""
    links = env_links(env, seed=seed, base_delay=2)
    rows: list[dict] = []
    scenarios = [
        ("crash-free n=4", 4, {}, 0),
        ("crash-free n=4, churn", 4, {}, 250),
        ("minority correct (1/3)", 3, {1: 100, 2: 140}, 0),
        ("minority correct, churn", 5, {0: 80, 1: 80, 2: 80}, 200),
        ("single survivor (1/4)", 4, {1: 60, 2: 60, 3: 60}, 0),
    ]
    for label, n, crashes, tau in scenarios:
        sim = run_plan(
            RunSpec(
                n=n,
                duration=3000,
                protocol="ec",
                protocol_args=(("instances", 40),),
                crashes=tuple(sorted(crashes.items())),
                seed=seed,
                tau=tau,
                links=links,
                timeout_interval=4,
            )
        )
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
    return rows


#: EXP-8's survivors' broadcasts, after the majority crashed at t=100.
_POST_CRASH = ((3, 200, "post-crash-1"), (4, 320, "post-crash-2"))


def partition_gap_spec(
    protocol: str = "etob",
    protocol_args: tuple[tuple[str, Any], ...] = (),
    *,
    seed: int = 0,
    env: str = "baseline",
) -> RunSpec:
    """EXP-8's run of one protocol: processes 0-2 of 5 crash at t=100 after
    one broadcast, and the survivors 3 and 4 broadcast after the crash. The
    ``exp8-tau`` falsify target and its i.i.d. baseline derive from the
    Omega-only ETOB case."""
    return RunSpec(
        n=5,
        duration=4000,
        protocol=protocol,
        protocol_args=protocol_args,
        crashes=((0, 100), (1, 100), (2, 100)),
        inputs=tuple(
            (p, t, ("broadcast", m))
            for p, t, m in ((0, 10, "pre-crash"),) + _POST_CRASH
        ),
        seed=seed,
        tau=150,
        links=env_links(env, seed=seed, base_delay=2),
        timeout_interval=2,
        message_batch=4,
    )


def claim_partition_gap(rows: list[dict]) -> dict[str, bool]:
    """Sigma is the exact gap: availability without majority

    No verdict beyond the rows: each row's ``as_expected`` flag already
    states its third of the claim (ETOB available, majority consensus
    blocked, Omega+Sigma consensus available). Seeded: the seed draws the
    environment's link delays.
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
) -> list[dict]:
    """EXP-8: crash a majority; only Omega-only ETOB and Omega+Sigma
    consensus stay available."""
    rows: list[dict] = []
    # The *shape* is the claim: Omega-only ETOB and Omega+Sigma consensus
    # must stay available, majority-quorum consensus must block.
    cases = [
        ("etob", (), "Omega", True),
        ("tob-consensus", (), "Omega (majority quorums)", False),
        ("tob-consensus", (("quorum_mode", "sigma"),), "Omega + Sigma", True),
    ]
    for protocol, protocol_args, detector_label, expected_available in cases:
        sim = run_plan(
            partition_gap_spec(protocol, protocol_args, seed=seed, env=env)
        )
        tl = extract_timeline(sim.run)
        survivors = (3, 4)
        delivered = sum(
            1
            for __, __, payload in _POST_CRASH
            if all(payload in payloads(tl.final_sequence(pid)) for pid in survivors)
        )
        available = delivered == len(_POST_CRASH)
        rows.append(
            {
                "protocol": protocol,
                "detector": detector_label,
                "delivered": delivered,
                "available": available,
                "as_expected": available == expected_available,
            }
        )
    return rows
