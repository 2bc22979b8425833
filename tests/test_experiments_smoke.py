"""Smoke tests for the experiment runners (reduced-size configurations).

The full-size runs are the report's (``benchmarks/generate_report.py``, whose
``--smoke`` CI gate checks every claim on every cell); these verify that
every experiment runner produces structurally sound results quickly, so a
plain ``pytest tests/`` run still covers the runner code.
"""

import inspect
import math

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
from repro.sim import Simulation
from repro.sim.replay import run_digest

#: the experiments whose seed reaches nothing (round-robin scheduling,
#: FixedDelay links, a detector stable from 0 or the unseeded "rotate"
#: churn); every other experiment's seed draws link delays or clients.
DETERMINISTIC = {"EXP-1", "EXP-2", "EXP-5", "EXP-7", "EXP-9", "EXP-10b"}


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
        etob, tob, ct = exp_comm_steps(ns=(3,), delay=40, messages=3)
        assert etob["protocol"] == "etob"
        assert etob["mean_steps"] < tob["mean_steps"] < ct["mean_steps"]

    def test_stabilization_small(self):
        rows = exp_etob_stabilization(taus=(0, 120))
        assert all(r["ok"] for r in rows)
        assert all(r["tau"] <= r["bound"] for r in rows)

    def test_tob_mode_rows(self):
        assert all(r["ok"] and r["tau"] == 0 for r in exp_tob_mode())

    def test_partition_gap_shape(self):
        availability = {
            (r["protocol"], r["detector"]): r["available"]
            for r in exp_partition_gap()
        }
        assert availability[("etob", "Omega")]
        assert not availability[("tob-consensus", "Omega (majority quorums)")]

    def test_eic_rows(self):
        assert all(r["ok"] for r in exp_eic())

    def test_promote_period_rows(self):
        rows = exp_ablation_promote_period(periods=(2, 8))
        by_period = {r["period"]: r for r in rows}
        assert by_period[8]["sent"] < by_period[2]["sent"]

    def test_workload_latency_shape(self):
        rows = exp_workload_latency()
        by_stack = {r["stack"]: r for r in rows}
        assert set(by_stack) == {"direct", "etob", "ec", "paxos"}
        assert all(r["served"] for r in rows)
        # The claim's shape: each consistency level costs tail latency.
        assert (
            by_stack["direct"]["p99"]
            < by_stack["etob"]["p99"]
            < by_stack["paxos"]["p99"]
        )


class TestSeedDeclarations:
    """The signature is the seed declaration: a seeded experiment's seed
    must reach a simulation, and a deterministic one runs once."""

    def test_deterministic_set_is_declared_by_signature(self):
        assert {
            key for key in ALL_EXPERIMENTS if not EXPERIMENT_REGISTRY[key].seeded
        } == DETERMINISTIC

    @pytest.mark.parametrize("key", sorted(DETERMINISTIC))
    def test_deterministic_experiment_runs_one_cell_per_axis_point(self, key):
        definition = EXPERIMENT_REGISTRY[key]
        assert "seed" not in inspect.signature(definition.fn).parameters
        assert [cell.params for cell in definition.cells(3)] == [{}]
        axes = {axis.name: axis.values for axis in definition.axes}
        cells = definition.cells(3, axes=axes)
        assert len(cells) == math.prod(len(values) for values in axes.values())
        assert all("seed" not in cell.params for cell in cells)
        assert {cell.tags["seed"] for cell in cells} == {None}

    @pytest.mark.parametrize(
        "key", sorted(set(ALL_EXPERIMENTS) - DETERMINISTIC)
    )
    def test_two_seeds_give_different_runs(self, monkeypatch, key):
        """Under at least one of its environments, seeds 0 and 1 finish
        some simulation of the experiment with different digests."""
        digests = []
        run_until = Simulation.run_until

        def recording(sim, *args, **kwargs):
            outcome = run_until(sim, *args, **kwargs)
            digests.append(run_digest(sim))
            return outcome

        monkeypatch.setattr(Simulation, "run_until", recording)
        definition = EXPERIMENT_REGISTRY[key]
        envs = [{}]
        if any(axis.name == "env" for axis in definition.axes):
            envs = [{"env": env} for env in definition.declared_axis("env").values]
        differing = 0
        for env in envs:
            runs = []
            for seed in (0, 1):
                digests.clear()
                definition.fn(seed=seed, **env)
                runs.append(list(digests))
            assert runs[0] and len(runs[0]) == len(runs[1])
            differing += sum(a != b for a, b in zip(*runs))
        assert differing > 0
