"""Stabilization experiments: the ETOB tau bound and the strong-TOB mode."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.experiments.base import (
    ExperimentResult,
    _run_broadcast_scenario,
    experiment,
)
from repro.analysis.tables import Table
from repro.properties import check_etob, check_tob
from repro.sim import make_env
from repro.suite import Axis


@experiment(
    "EXP-4",
    "ETOB stabilization vs the paper bound (Lemma 3)",
    group_by=("tau_omega",),
    metrics=("tau", "bound"),
    flags=("within_bound", "ok"),
    cost=0.25,
    # The declared two-axis sweeps: `Campaign.extend("EXP-4", "n")` (or
    # `sweep("EXP-4", n=[...])`) multiplies the tau grid by system size,
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
) -> ExperimentResult:
    """EXP-4: measured ETOB tau vs the proof's bound tau_Omega + Dt + Dc."""
    delay, timeout = 3, 4
    environment = make_env(env, seed=seed, base_delay=delay)
    table = Table(
        f"EXP-4: ETOB stabilization vs paper bound (tau_Omega + Dt + Dc), "
        f"env={env}",
        ["tau_Omega", "measured tau", "bound", "within bound", "verdict"],
    )
    rows: list[dict] = []
    for tau_omega in taus:
        broadcasts = [
            (p, 15 + 23 * i + p, f"m{i}.{p}") for i in range(5) for p in range(n)
        ]
        sim = _run_broadcast_scenario(
            "etob",
            n=n,
            broadcasts=broadcasts,
            duration=max(1200, tau_omega * 3 + 600),
            delay=delay,
            timeout=timeout,
            tau_omega=tau_omega,
            seed=seed,
            delay_model=environment.delay,
        )
        report = check_etob(sim.run)
        # Dt: worst local timeout distance = timer interval stretched by the
        # scheduling granularity; Dc: one network traversal *after the
        # environment stabilizes* (its post_bound). Promotion plus adoption
        # costs one timeout + one delivery once both the detector and the
        # links have settled — for the baseline environment this reduces to
        # the original tau_Omega + (timeout + n) + delay.
        bounds = environment.bounds
        bound = (
            max(tau_omega, bounds.stabilizes_at)
            + (timeout + n)
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
        table.add_row(tau_omega, report.tau, bound, report.tau <= bound, report.ok)
    return ExperimentResult("etob-stabilization", table, rows)


@experiment(
    "EXP-5",
    "stable Omega from the start implies strong TOB",
    group_by=("scenario",),
    metrics=("tau",),
    flags=("ok",),
    cost=0.09,
)
def exp_tob_mode(*, seed: int = 0) -> ExperimentResult:
    """EXP-5: Algorithm 5 satisfies *strong* TOB when Omega never changes."""
    table = Table(
        "EXP-5: Algorithm 5 under stable Omega = strong TOB",
        ["scenario", "strong TOB verdict", "tau"],
    )
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
        sim = _run_broadcast_scenario(
            "etob",
            n=n,
            broadcasts=broadcasts,
            duration=1500,
            tau_omega=0,
            crashes=crashes,
            seed=seed,
        )
        report = check_tob(sim.run)
        rows.append({"scenario": label, "ok": report.ok, "tau": report.etob.tau})
        table.add_row(label, report.ok, report.etob.tau)
    return ExperimentResult("tob-mode", table, rows)
