"""Each experiment's claim is shown able to fail.

A mutant of :mod:`mutants` shows that a checker verdict can fail. An
experiment's claim reads the rows its function builds from real runs, so a
claim that reads the wrong column, or a row builder that falls back to a
default, would read true forever. Each test here runs one experiment
in-process with one registry protocol swapped for a mutant and asserts
that a named claim verdict goes false, while the real protocol holds it on
the same cell.
"""

from __future__ import annotations

from repro.analysis.experiments.environments import (
    claim_ec_any_environment,
    exp_ec_any_environment,
)
from repro.protocols import PROTOCOLS

from mutants import MUTANT_PROTOCOLS


def test_exp3_claim_catches_the_ec_that_decides_the_first_proposal(monkeypatch):
    # Under churn the mutant decides the first promote it holds from any
    # sender, so every process agrees from instance 1, decided before Omega
    # stabilises. Every row's checker still passes (agreement does hold), so
    # only the claim sees it: under churn, agreement may start only once
    # the detector has settled.
    real = claim_ec_any_environment(exp_ec_any_environment(seed=0, env="baseline"))
    assert real == {"stable_agrees_from_k1": True, "churn_agrees_after_tau_omega": True}
    monkeypatch.setitem(PROTOCOLS, "ec", MUTANT_PROTOCOLS["ec-decides-first-proposal"])
    rows = exp_ec_any_environment(seed=0, env="baseline")
    assert all(row["ok"] for row in rows)
    assert claim_ec_any_environment(rows) == {
        "stable_agrees_from_k1": True,
        "churn_agrees_after_tau_omega": False,
    }
