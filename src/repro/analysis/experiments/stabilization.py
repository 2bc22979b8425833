"""Stabilization experiments: the ETOB tau bound and the strong-TOB mode."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.experiments.base import experiment
from repro.properties import check_etob, check_tob
from repro.sim import FixedDelay, RunSpec, env_links, make_env, run_plan
from repro.suite import Axis

#: EXP-4's link delay and timer interval.
_DELAY, _TIMEOUT = 3, 4


def etob_stabilization_spec(
    tau_omega: int, *, n: int = 4, seed: int = 0, env: str = "baseline"
) -> RunSpec:
    """EXP-4's run at one tau_Omega: five rounds of one broadcast per
    process, under the named environment at EXP-4's base delay. The
    ``exp4-tau`` falsify target and its i.i.d. baseline derive from it."""
    return RunSpec(
        n=n,
        duration=max(1200, tau_omega * 3 + 600),
        protocol="etob",
        inputs=tuple(
            (p, 15 + 23 * i + p, ("broadcast", f"m{i}.{p}"))
            for i in range(5)
            for p in range(n)
        ),
        seed=seed,
        tau=tau_omega,
        links=env_links(env, seed=seed, base_delay=_DELAY),
        timeout_interval=_TIMEOUT,
        message_batch=4,
    )


def claim_etob_stabilization(rows: list[dict]) -> dict[str, bool]:
    """ETOB stabilizes by tau_Omega + Dt + Dc (Lemma 3)

    The bound itself is the ``within_bound`` flag; across rows, measured tau
    is non-decreasing in tau_Omega — the detector is the bottleneck.
    Seeded: the seed draws the environment's link delays.
    """
    taus = [row["tau"] for row in sorted(rows, key=lambda row: row["tau_omega"])]
    return {"tau_tracks_tau_omega": taus == sorted(taus)}


@experiment(
    "EXP-4",
    "ETOB stabilization vs the paper bound (Lemma 3)",
    claim=claim_etob_stabilization,
    group_by=("tau_omega",),
    metrics=("tau", "bound"),
    flags=("within_bound", "ok"),
    cost=0.25,
    # The declared two-axis sweeps: `Campaign.extend("EXP-4", "n")` (or
    # `.extend("EXP-4", n=[...])`) multiplies the tau grid by system size,
    # `Campaign.extend("EXP-4", "env")` by network environment;
    # `aggregate_sweep(..., pivot=...)` renders either as columns.
    axes=(Axis("n", (4, 5)), Axis("env", ("baseline", "age-gst", "late-links"))),
)
def exp_etob_stabilization(
    taus: Sequence[int] = (0, 100, 200, 400),
    *,
    n: int = 4,
    seed: int = 0,
    env: str = "baseline",
) -> list[dict]:
    """EXP-4: measured ETOB tau vs the proof's bound tau_Omega + Dt + Dc."""
    # Each run refuses an environment with churn (see etob_stabilization_spec).
    bounds = make_env(env, seed=seed, base_delay=_DELAY).bounds
    rows: list[dict] = []
    for tau_omega in taus:
        sim = run_plan(etob_stabilization_spec(tau_omega, n=n, seed=seed, env=env))
        report = check_etob(sim.run)
        # Dt: worst local timeout distance = timer interval stretched by the
        # scheduling granularity; Dc: one network traversal *after the
        # environment stabilizes* (its post_bound). Promotion plus adoption
        # costs one timeout + one delivery once both the detector and the
        # links have settled — for the baseline environment this reduces to
        # the original tau_Omega + (timeout + n) + delay.
        bound = (
            max(tau_omega, bounds.stabilizes_at)
            + (_TIMEOUT + n)
            + bounds.post_bound
        )
        rows.append(
            {
                "tau_omega": tau_omega,
                "tau": report.tau,
                "bound": bound,
                "within_bound": report.tau <= bound,
                "ok": report.ok,
            }
        )
    return rows


def claim_tob_mode(rows: list[dict]) -> dict[str, bool]:
    """Stable Omega from start => strong TOB (Alg 5 property 2)

    Strong TOB has no stabilization prefix: tau = 0 in every scenario.
    Deterministic: round-robin scheduling, fixed delays and a detector
    stable from time 0 leave nothing for a seed to draw.
    """
    return {"tau_is_zero": all(row["tau"] == 0 for row in rows)}


@experiment(
    "EXP-5",
    "stable Omega from the start implies strong TOB",
    claim=claim_tob_mode,
    group_by=("scenario",),
    metrics=("tau",),
    flags=("ok",),
    cost=0.09,
)
def exp_tob_mode() -> list[dict]:
    """EXP-5: Algorithm 5 satisfies *strong* TOB when Omega never changes."""
    rows: list[dict] = []
    scenarios = [
        ("crash-free n=4", 4, {}),
        ("one crash n=5", 5, {4: 150}),
        ("minority correct n=5", 5, {0: 120, 1: 120, 2: 160}),
    ]
    for label, n, crashes in scenarios:
        broadcasts = [(p, 10 + 37 * i + p, f"m{i}.{p}") for i in range(4) for p in range(n)]
        broadcasts = [
            (p, t, m)
            for p, t, m in broadcasts
            if p not in crashes or t < crashes[p]
        ]
        sim = run_plan(
            RunSpec(
                n=n,
                duration=1500,
                protocol="etob",
                crashes=tuple(sorted(crashes.items())),
                inputs=tuple((p, t, ("broadcast", m)) for p, t, m in broadcasts),
                tau=0,
                links=FixedDelay(2),
                timeout_interval=2,
                message_batch=4,
            )
        )
        report = check_tob(sim.run)
        rows.append({"scenario": label, "ok": report.ok, "tau": report.etob.tau})
    return rows
