"""Smoke tests for the experiment runners (reduced-size configurations).

The full-size runs are the report's (``benchmarks/generate_report.py``, whose
``--smoke`` CI gate checks every claim on every cell); these verify that
every experiment runner produces structurally sound results quickly, so a
plain ``pytest tests/`` run still covers the runner code.
"""

import pytest

from repro.analysis.experiments import (
    ALL_EXPERIMENTS,
    EXPERIMENT_REGISTRY,
    exp_ablation_promote_period,
    exp_comm_steps,
    exp_eic,
    exp_etob_stabilization,
    exp_partition_gap,
    exp_tob_mode,
    exp_workload_latency,
)


class TestExperimentSmoke:
    def test_registry_is_complete(self):
        assert set(ALL_EXPERIMENTS) == {
            "EXP-1",
            "EXP-2",
            "EXP-3",
            "EXP-4",
            "EXP-5",
            "EXP-6",
            "EXP-7",
            "EXP-8",
            "EXP-9",
            "EXP-10a",
            "EXP-10b",
            "EXP-10c",
            "EXP-11",
        }

    @pytest.mark.parametrize("key", list(ALL_EXPERIMENTS))
    def test_experiment_states_its_claim(self, key):
        lines = (EXPERIMENT_REGISTRY[key].claim.__doc__ or "").strip().splitlines()
        assert lines and lines[0].strip()

    def test_comm_steps_small(self):
        result = exp_comm_steps(ns=(3,), delay=40, messages=3)
        assert len(result.rows) == 3
        etob, tob, ct = result.rows
        assert etob["protocol"] == "etob"
        assert etob["mean_steps"] < tob["mean_steps"] < ct["mean_steps"]
        assert "EXP-1" in result.render()

    def test_stabilization_small(self):
        result = exp_etob_stabilization(taus=(0, 120))
        assert all(r["ok"] for r in result.rows)
        assert all(r["tau"] <= r["bound"] for r in result.rows)

    def test_tob_mode_rows(self):
        result = exp_tob_mode()
        assert all(r["ok"] and r["tau"] == 0 for r in result.rows)

    def test_partition_gap_shape(self):
        result = exp_partition_gap()
        availability = {
            (r["protocol"], r["detector"]): r["available"] for r in result.rows
        }
        assert availability[("etob", "Omega")]
        assert not availability[("tob-consensus", "Omega (majority quorums)")]

    def test_eic_rows(self):
        result = exp_eic()
        assert all(r["ok"] for r in result.rows)

    def test_promote_period_rows(self):
        result = exp_ablation_promote_period(periods=(2, 8))
        by_period = {r["period"]: r for r in result.rows}
        assert by_period[8]["sent"] < by_period[2]["sent"]

    def test_workload_latency_shape(self):
        result = exp_workload_latency()
        by_stack = {r["stack"]: r for r in result.rows}
        assert set(by_stack) == {"direct", "etob", "ec", "paxos"}
        assert all(r["served"] for r in result.rows)
        # The claim's shape: each consistency level costs tail latency.
        assert (
            by_stack["direct"]["p99"]
            < by_stack["etob"]["p99"]
            < by_stack["paxos"]["p99"]
        )
        assert "EXP-11" in result.render()

    def test_result_tables_render(self):
        result = exp_tob_mode()
        text = result.render()
        assert "EXP-5" in text and "scenario" in text
