"""Tests for the cross-experiment Campaign: pooling, demultiplexing,
determinism across workers and pool orderings, and pivoted tables."""

import dataclasses
import io
import json

import pytest

from repro.analysis.experiments import (
    EXPERIMENT_REGISTRY,
    Campaign,
    aggregate_sweep,
    run_experiment,
    sweep_rows,
)
from repro.sim.errors import ConfigurationError
from repro.suite import CellResult, SuiteProgress, SuiteResult, run_cells

# Cheap experiments only (≤ ~0.1 s/cell each) so the whole module stays
# fast: EXP-5 and EXP-9 are deterministic (one cell each), EXP-10c seeded.
KEYS = ["EXP-5", "EXP-9", "EXP-10c"]
SEEDS = [0, 1]


def scrubbed(outcome, keys=KEYS):
    """The deterministic portion of a campaign outcome, JSON-serialized."""
    return json.dumps(
        {
            key: {
                "rows": sweep_rows(outcome.experiment(key)),
                "aggregated": aggregate_sweep(key, outcome.experiment(key))[1],
            }
            for key in keys
        },
        sort_keys=True,
        default=repr,
    )


class TestCampaignPooling:
    def test_one_pool_carries_every_experiment(self):
        outcome = Campaign(KEYS, seeds=SEEDS).run(workers=0)
        assert outcome.ok
        assert len(outcome.suite.cells) == 1 + 1 + len(SEEDS)
        experiments = {c.tags["experiment"] for c in outcome.suite.cells}
        assert experiments == set(KEYS)

    def test_cost_ordering_puts_expensive_cells_first(self):
        campaign = Campaign(["EXP-10c", "EXP-9"], seeds=SEEDS)
        pool = campaign.cells()
        pool.sort(key=lambda cell: -cell.cost)
        # EXP-9 (cost 0.22) must be dispatched before EXP-10c (cost 0.12).
        assert [c.tags["experiment"] for c in pool] == ["EXP-9", "EXP-10c", "EXP-10c"]

    def test_demux_reassembles_canonical_order(self):
        outcome = Campaign(KEYS, seeds=SEEDS).run(workers=0)
        for key in KEYS:
            result = outcome.experiment(key)
            assert result.name == f"{key}-sweep"
            expected = SEEDS if EXPERIMENT_REGISTRY[key].seeded else [None]
            assert [c.index for c in result.cells] == list(range(len(expected)))
            assert [c.params.get("seed") for c in result.cells] == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign(["EXP-99"])

    def test_duplicate_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign(["EXP-5", "EXP-5"])

    def test_result_for_foreign_key_rejected(self):
        outcome = Campaign(["EXP-5"], seeds=[0]).run(workers=0)
        with pytest.raises(KeyError):
            outcome.experiment("EXP-9")

    def test_progress_lines_are_prefixed_per_experiment(self):
        buffer = io.StringIO()
        outcome = Campaign(["EXP-5", "EXP-10c"], seeds=[0]).run(
            workers=0, progress=SuiteProgress(stream=buffer)
        )
        assert outcome.ok
        text = buffer.getvalue()
        assert "EXP-5: " in text and "EXP-10c: " in text


class TestCampaignDeterminism:
    def test_matches_direct_experiment_calls(self):
        outcome = Campaign(KEYS, seeds=SEEDS).run(workers=0)
        for key in KEYS:
            for cell in outcome.experiment(key).cells:
                direct = run_experiment(key, **cell.params)
                assert cell.value == direct

    def test_workers_do_not_change_numbers(self):
        serial = Campaign(KEYS, seeds=SEEDS).run(workers=0)
        parallel = Campaign(KEYS, seeds=SEEDS).run(workers=2)
        assert scrubbed(serial) == scrubbed(parallel)

    def test_cost_ordering_does_not_change_numbers(self):
        """The cost-ordered pool computes, cell for cell, what the same
        cells compute run in canonical order."""
        campaign = Campaign(KEYS, seeds=SEEDS)
        by_cost = campaign.run(workers=0).suite
        by_grid = run_cells(campaign.cells(), name="cell-pool", workers=0)
        assert [c.tags for c in by_cost.cells] != [c.tags for c in by_grid.cells]

        def rows(result):
            return {
                (c.tags["experiment"], c.tags["cell"]): c.value
                for c in result.cells
            }

        assert rows(by_cost) == rows(by_grid)

    def test_matches_per_experiment_campaigns(self):
        """The cost-ordered shared pool reproduces one pool per experiment."""
        outcome = Campaign(KEYS, seeds=SEEDS).run(workers=0)
        for key in KEYS:
            alone = Campaign([key], seeds=SEEDS).run(workers=0).experiment(key)
            pooled = outcome.experiment(key)
            assert [c.value for c in pooled.cells] == [c.value for c in alone.cells]
            assert aggregate_sweep(key, pooled)[1] == aggregate_sweep(key, alone)[1]


def scrub_report(report):
    """Drop the timing/host keys of a BENCH_report payload, recursively."""
    volatile = {"wall_time_s", "cell_time_s", "python", "workers"}
    if isinstance(report, dict):
        return {
            key: scrub_report(value)
            for key, value in report.items()
            if key not in volatile
        }
    if isinstance(report, list):
        return [scrub_report(item) for item in report]
    return report


class TestReportDeterminism:
    """generate_report numbers must not depend on worker count or ordering."""

    def generate(self, tmp_path, monkeypatch, label, extra_args):
        import benchmarks.generate_report as generate_report

        monkeypatch.setattr(
            generate_report,
            "ALL_EXPERIMENTS",
            {key: EXPERIMENT_REGISTRY[key].fn for key in KEYS},
        )
        md = tmp_path / f"{label}.md"
        js = tmp_path / f"{label}.json"
        code = generate_report.main(
            [str(md), "--json", str(js), "--seeds", "2", *extra_args]
        )
        assert code == 0
        return json.loads(js.read_text())

    def test_bench_report_identical_across_worker_counts(self, tmp_path, monkeypatch):
        serial = self.generate(tmp_path, monkeypatch, "serial", ["--workers", "0"])
        parallel = self.generate(tmp_path, monkeypatch, "parallel", ["--workers", "2"])
        assert json.dumps(scrub_report(serial), sort_keys=True) == json.dumps(
            scrub_report(parallel), sort_keys=True
        )

    def test_bench_report_matches_old_sequential_path(self, tmp_path, monkeypatch):
        """The pooled report reproduces per-experiment campaigns number for
        number."""
        report = self.generate(tmp_path, monkeypatch, "pooled", ["--workers", "0"])
        for key in KEYS:
            sequential = Campaign([key], seeds=2).run(workers=0).experiment(key)
            table, aggregated = aggregate_sweep(key, sequential)
            assert (
                json.loads(json.dumps(aggregated))
                == report["experiments"][key]["aggregated"]
            )
            assert (
                json.loads(json.dumps(sweep_rows(sequential), default=repr))
                == json.loads(
                    json.dumps(report["experiments"][key]["rows"], default=repr)
                )
            )


class TestReportClaims:
    """Any false claim verdict or flag fails the report, and the summary
    column names it."""

    def generate(self, tmp_path, monkeypatch):
        import benchmarks.generate_report as generate_report

        monkeypatch.setattr(
            generate_report,
            "ALL_EXPERIMENTS",
            {"EXP-5": EXPERIMENT_REGISTRY["EXP-5"].fn},
        )
        md = tmp_path / "report.md"
        code = generate_report.main(
            [str(md), "--json", str(tmp_path / "report.json"), "--seeds", "1",
             "--workers", "0"]
        )
        (summary,) = [
            line for line in md.read_text().splitlines()
            if line.startswith("| EXP-5 |")
        ]
        return code, summary

    def replace(self, monkeypatch, **changes):
        monkeypatch.setitem(
            EXPERIMENT_REGISTRY,
            "EXP-5",
            dataclasses.replace(EXPERIMENT_REGISTRY["EXP-5"], **changes),
        )

    def test_false_verdict_fails_and_is_named(self, tmp_path, monkeypatch):
        def broken(rows):
            """Stable Omega from start => strong TOB (Alg 5 property 2)"""
            return {"x": False}

        self.replace(monkeypatch, claim=broken)
        code, summary = self.generate(tmp_path, monkeypatch)
        assert code == 1
        assert summary.endswith(
            "| claim fails (deterministic: 1 run) — false: x |"
        )

    def test_false_flag_fails_and_is_named(self, tmp_path, monkeypatch):
        def one_false_flag(*, seed):
            return [{"scenario": "crash-free n=4", "ok": False, "tau": 0}]

        # Taking a seed makes the stand-in a seeded experiment.
        self.replace(monkeypatch, fn=one_false_flag)
        code, summary = self.generate(tmp_path, monkeypatch)
        assert code == 1
        assert summary.endswith(
            "| claim holds on 0/1 seeds over 1 distinct outcome — false: ok |"
        )

    def test_a_row_missing_a_declared_column_fails_its_cell(
        self, tmp_path, monkeypatch
    ):
        """A flag a row lacks is no pass: the cell fails and the summary
        reads partial. A missing metric column stays legal."""

        def rows_without(*columns):
            row = {"scenario": "crash-free n=4", "ok": True, "tau": 0}
            return lambda: [{k: v for k, v in row.items() if k not in columns}]

        self.replace(monkeypatch, fn=rows_without("tau"))
        assert run_experiment("EXP-5") == [{"scenario": "crash-free n=4", "ok": True}]
        self.replace(monkeypatch, fn=rows_without("scenario"))
        with pytest.raises(ValueError, match=r"lacks declared column\(s\) \['scenario'\]"):
            run_experiment("EXP-5")
        self.replace(monkeypatch, fn=rows_without("ok"))
        code, summary = self.generate(tmp_path, monkeypatch)
        assert code == 1
        assert summary.endswith("| partial — 1 cell(s) failed |")

    def test_deterministic_summary_names_its_one_run(self, tmp_path, monkeypatch):
        code, summary = self.generate(tmp_path, monkeypatch)
        assert code == 0
        assert summary.endswith("| claim holds (deterministic: 1 run) |")

    def test_distinct_outcomes_are_counted_per_axis_point(self):
        from benchmarks.generate_report import distinct_outcomes, reproduced_label

        def rows(tau):
            return [{"tau_omega": 0, "tau": tau, "bound": 9,
                     "within_bound": True, "ok": True}]

        # Three seeds per env: identical rows under baseline, two distinct
        # row sets under age-gst.
        result = fake_sweep_result("EXP-4", [
            ({"seed": seed, "env": env}, rows(tau))
            for env, taus in (("baseline", (3, 3, 3)), ("age-gst", (3, 5, 5)))
            for seed, tau in zip((0, 1, 2), taus)
        ])
        outcomes = distinct_outcomes(result)
        assert outcomes == {(("env", "baseline"),): 1, (("env", "age-gst"),): 2}
        false = {0: set(), 1: set(), 2: set()}
        assert reproduced_label(false, 0, outcomes, seeded=True) == (
            "claim holds on 3/3 seeds over 1–2 distinct outcomes per env"
        )
        baseline = {point: d for point, d in outcomes.items() if d == 1}
        assert reproduced_label(false, 0, baseline, seeded=True) == (
            "claim holds on 3/3 seeds over 1 distinct outcome"
        )
        assert reproduced_label({0: set(), 1: {"ok"}}, 0, outcomes, seeded=True) == (
            "claim holds on 1/2 seeds over 1–2 distinct outcomes per env — false: ok"
        )


class TestExtraAxes:
    def test_declared_axis_pulled_by_name(self):
        campaign = Campaign(["EXP-4"], seeds=[0]).extend("EXP-4", "n")
        declared = EXPERIMENT_REGISTRY["EXP-4"].declared_axis("n")
        assert [c.params["n"] for c in campaign.cells()] == list(declared.values)

    def test_undeclared_axis_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign(["EXP-4"], seeds=[0]).extend("EXP-4", "zeta")

    def test_axis_given_twice_rejected(self):
        campaign = Campaign(["EXP-4"], seeds=[0]).extend("EXP-4", n=[4])
        with pytest.raises(ConfigurationError):
            campaign.extend("EXP-4", n=[5])

    def test_seed_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign(["EXP-4"], seeds=[0]).extend("EXP-4", seed=[1]).cells()

    def test_empty_seed_sequence_rejected_at_expansion(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            Campaign(["EXP-5"], seeds=[]).cells()

    def test_extend_foreign_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            Campaign(["EXP-5"], seeds=[0]).extend("EXP-4", n=[4])

    def test_axes_multiply_cells_and_tag_provenance(self):
        campaign = Campaign(["EXP-4"], seeds=[0, 1]).extend("EXP-4", n=[4, 5])
        cells = campaign.cells()
        assert len(cells) == 4  # 2 seeds × 2 n, seed-major
        assert [c.params["n"] for c in cells] == [4, 5, 4, 5]
        assert cells[1].tags["axes"] == {"n": 5}
        assert [c.tags["cell"] for c in cells] == [0, 1, 2, 3]


def fake_sweep_result(key, rows_by_cell):
    """A synthetic SuiteResult shaped like a sweep of ``key``."""
    cells = []
    for index, (params, rows) in enumerate(rows_by_cell):
        cells.append(
            CellResult(
                index=index,
                params=params,
                value=rows,
            )
        )
    return SuiteResult(name=f"{key}-sweep", cells=cells)


class TestPivot:
    def result_over_n(self):
        # EXP-4's spec: group_by=(tau_omega,), metrics=(tau, bound),
        # flags=(within_bound, ok). Two seeds × two n values.
        rows_by_cell = []
        for seed in (0, 1):
            for n in (4, 5):
                rows_by_cell.append(
                    (
                        {"seed": seed, "n": n},
                        [
                            {
                                "tau_omega": tau,
                                "tau": tau + n,
                                "bound": tau + 10 + n,
                                "within_bound": True,
                                "ok": True,
                            }
                            for tau in (0, 100)
                        ],
                    )
                )
        return fake_sweep_result("EXP-4", rows_by_cell)

    def test_pivot_renders_axis_as_columns(self):
        table, aggregated = aggregate_sweep("EXP-4", self.result_over_n(), pivot="n")
        assert "pivoted on n" in table.title
        assert any("[n=4]" in h for h in table.headers)
        assert any("[n=5]" in h for h in table.headers)
        # One table row per tau_omega — n moved into columns.
        assert len(table.rows) == 2
        # JSON aggregates stay unpivoted: one per (tau_omega, n).
        assert len(aggregated) == 4
        assert {row["n"] for row in aggregated} == {4, 5}
        by_key = {(row["tau_omega"], row["n"]): row for row in aggregated}
        assert by_key[(0, 5)]["tau"]["mean"] == 5.0

    def test_pivot_without_pivot_is_unchanged_shape(self):
        table, aggregated = aggregate_sweep("EXP-4", self.result_over_n())
        assert "pivoted" not in table.title
        # n stays a hidden replicate: rows group by tau_omega only.
        assert len(aggregated) == 2

    def test_pivot_missing_combination_renders_dash(self):
        result = fake_sweep_result(
            "EXP-4",
            [
                (
                    {"seed": 0, "n": 4},
                    [{"tau_omega": 0, "tau": 1, "bound": 2,
                      "within_bound": True, "ok": True}],
                ),
                (
                    {"seed": 0, "n": 5},
                    [{"tau_omega": 100, "tau": 1, "bound": 2,
                      "within_bound": True, "ok": True}],
                ),
            ],
        )
        table, aggregated = aggregate_sweep("EXP-4", result, pivot="n")
        assert len(table.rows) == 2
        assert "-" in table.rows[0]  # tau_omega=0 has no n=5 data
        assert len(aggregated) == 2

    def test_pivot_on_absent_column_rejected(self):
        with pytest.raises(ValueError, match="appears in no row"):
            aggregate_sweep("EXP-4", self.result_over_n(), pivot="zeta")

    def test_pivot_on_group_by_column_moves_it_out_of_rows(self):
        table, aggregated = aggregate_sweep(
            "EXP-4", self.result_over_n(), pivot="tau_omega"
        )
        assert "tau_omega" not in {h for h in table.headers}  # no bare column
        assert any("[tau_omega=100]" in h for h in table.headers)
        assert all("tau_omega" in row for row in aggregated)
