"""Unit tests for the benchmark floor gate (benchmarks/check_bench_floors.py):
flat artifacts, the performance ruler's ``--out`` document, and the floors
committed in benchmarks/baselines.json."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks import check_bench_floors

REPO = Path(__file__).resolve().parent.parent
BASELINES_PATH = REPO / "benchmarks" / "baselines.json"


def write(tmp_path, name, payload):
    (tmp_path / name).write_text(json.dumps(payload))


def gate(tmp_path, baselines, *step) -> int:
    write(tmp_path, "baselines.json", baselines)
    return check_bench_floors.main(
        [
            "--baselines", str(tmp_path / "baselines.json"),
            "--artifact-dir", str(tmp_path),
            *step,
        ]
    )


BASE = {
    "some_bench": {
        "artifact": "fresh.json",
        "floors": {"speedup": 2.0},
        "require": {"results_identical": True},
    }
}


class TestGate:
    def test_clears_when_measured_above_floor(self, tmp_path):
        write(tmp_path, "fresh.json", {"speedup": 3.1, "results_identical": True})
        assert gate(tmp_path, BASE) == 0

    def test_fails_when_measured_below_floor(self, tmp_path):
        write(tmp_path, "fresh.json", {"speedup": 1.9, "results_identical": True})
        assert gate(tmp_path, BASE) == 1

    def test_fails_when_floor_raised_above_nominal(self, tmp_path):
        # The acceptance drill: tightening a committed floor past the
        # measured value must demonstrably fail the job.
        write(tmp_path, "fresh.json", {"speedup": 3.1, "results_identical": True})
        tightened = {
            "some_bench": {**BASE["some_bench"], "floors": {"speedup": 1000.0}}
        }
        assert gate(tmp_path, tightened) == 1

    def test_fails_on_missing_artifact(self, tmp_path):
        # A bench that silently never ran must not pass the gate.
        assert gate(tmp_path, BASE) == 1

    def test_fails_on_required_value_mismatch(self, tmp_path):
        write(tmp_path, "fresh.json", {"speedup": 3.1, "results_identical": False})
        assert gate(tmp_path, BASE) == 1

    def test_fails_on_missing_metric(self, tmp_path):
        write(tmp_path, "fresh.json", {"results_identical": True})
        assert gate(tmp_path, BASE) == 1

    def test_each_step_checks_its_own_entries(self, tmp_path):
        # The sanitizer step's coverage entry is neither required nor
        # checked by the benchmark steps' gate, and the other way round.
        staged = {**BASE, "coverage": {
            "artifact": "coverage.json", "step": "sanitizer",
            "floors": {"lines_pct": 90.0},
        }}
        write(tmp_path, "fresh.json", {"speedup": 3.1, "results_identical": True})
        assert gate(tmp_path, staged) == 0
        assert gate(tmp_path, staged, "--step", "sanitizer") == 1  # missing
        write(tmp_path, "coverage.json", {"lines_pct": 89.9})
        assert gate(tmp_path, staged, "--step", "sanitizer") == 1
        write(tmp_path, "coverage.json", {"lines_pct": 94.1})
        assert gate(tmp_path, staged, "--step", "sanitizer") == 0

    def test_comment_keys_ignored(self, tmp_path):
        write(tmp_path, "fresh.json", {"speedup": 3.1, "results_identical": True})
        assert gate(tmp_path, {"_comment": ["notes"], **BASE}) == 0

    def test_delta_table_names_the_failing_metric(self, tmp_path, capsys):
        write(tmp_path, "fresh.json", {"speedup": 1.0, "results_identical": True})
        assert gate(tmp_path, BASE) == 1
        out = capsys.readouterr().out
        assert "speedup" in out and "FAIL" in out and "+" not in out.split(
            "speedup"
        )[1].splitlines()[0].split("|")[4]


def metric(value: float) -> dict:
    return {"value": value, "unit": "1/s"}


def ruler_document(*, legacy=300_000.0, compiled=4_500_000.0, ops=160_000.0,
                   engaged=1, correct=True, drop=()) -> dict:
    """The shape of ``python -m benchmarks.perf --quick --trace 1 --out``,
    cut down to the passes the floors read; ``drop`` leaves out passes
    named ``(workload, trace)``."""
    runs = [
        {"workload": "dense_gossip", "trace": 0, "correct": True,
         "metrics": {"throughput_per_s": metric(4.7e6)}},
        {"workload": "dense_gossip", "trace": 1, "correct": True,
         "metrics": {
             "sim.kernel.legacy.ticks_per_s": metric(legacy),
             "sim.kernel.compiled-loop.ticks_per_s": metric(compiled),
             "sim.cloop_engaged": {"value": engaged, "unit": "count"},
         }},
        {"workload": "kv_direct", "trace": 0, "correct": correct,
         "metrics": {"throughput_per_s": metric(ops)}},
        {"workload": "kv_direct", "trace": 1, "correct": True,
         "metrics": {"sim.cloop_engaged": {"value": 0, "unit": "count"}}},
    ]
    return {
        "seed": 1, "quick": True,
        "runs": [r for r in runs if (r["workload"], r["trace"]) not in drop],
        "selfcheck_problems": [], "claim": None,
    }


def ruler_gate(tmp_path, document) -> int:
    """The committed bench-step floors against one ruler document."""
    write(tmp_path, "bench_perf_quick.json", document)
    return check_bench_floors.main(["--artifact-dir", str(tmp_path)])


class TestRulerDocument:
    def test_every_floor_clears(self, tmp_path, capsys):
        # 15x, 160k ops/s, the C loop engaged, every check passed
        assert ruler_gate(tmp_path, ruler_document()) == 0
        assert "OK: all 4 benchmark floor checks cleared" in capsys.readouterr().out

    def test_the_figures_read_off_the_document(self):
        assert check_bench_floors.ruler_figures(ruler_document()) == {
            "correct": True, "compiled_speedup": 15.0,
            "compiled_ops_per_sec": 160_000, "cloop_engaged": 1,
        }

    def test_fails_when_the_ratio_falls_below_its_floor(self, tmp_path, capsys):
        # 1.32M / 300k = 4.4x, under the 4.5x floor
        assert ruler_gate(tmp_path, ruler_document(compiled=1_320_000.0)) == 1
        row = [line for line in capsys.readouterr().out.splitlines()
               if "compiled_speedup" in line][0]
        assert "4.4" in row and "FAIL" in row

    def test_fails_below_the_ops_floor_or_off_the_c_loop(self, tmp_path):
        assert ruler_gate(tmp_path, ruler_document(ops=19_999.0)) == 1
        assert ruler_gate(tmp_path, ruler_document(engaged=0)) == 1

    @pytest.mark.parametrize(
        "missing", [("dense_gossip", 1), ("kv_direct", 0)],
    )
    def test_fails_when_a_pass_it_reads_is_missing(self, tmp_path, missing):
        assert ruler_gate(tmp_path, ruler_document(drop=[missing])) == 1

    def test_fails_when_a_workload_is_missing_altogether(self, tmp_path, capsys):
        document = ruler_document(
            drop=[("kv_direct", 0), ("kv_direct", 1)]
        )
        assert ruler_gate(tmp_path, document) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_fails_when_a_run_is_not_correct(self, tmp_path):
        assert ruler_gate(tmp_path, ruler_document(correct=False)) == 1

    def test_fails_on_an_empty_document(self, tmp_path):
        assert ruler_gate(tmp_path, ruler_document(drop=[
            ("dense_gossip", 0), ("dense_gossip", 1),
            ("kv_direct", 0), ("kv_direct", 1),
        ])) == 1


class TestCommittedBaselines:
    def test_baselines_parse_and_cover_the_ci_benches(self):
        baselines = json.loads(BASELINES_PATH.read_text())
        benches = {k for k in baselines if not k.startswith("_")}
        assert {k for k in benches if "step" not in baselines[k]} == {
            "perf_ruler"
        }
        assert {
            k for k in benches if baselines[k].get("step") == "sanitizer"
        } == {"ckernel_coverage"}
        for spec in (baselines[k] for k in benches):
            assert spec["artifact"].endswith(".json")
            assert spec.get("floors") or spec.get("require")

    def test_every_ruler_floor_names_a_figure_the_gate_reads(self):
        spec = json.loads(BASELINES_PATH.read_text())["perf_ruler"]
        assert spec["artifact"] == "bench_perf_quick.json"
        figures = check_bench_floors.ruler_figures(ruler_document())
        assert set(spec["floors"]) | set(spec["require"]) == set(figures)
        assert spec["floors"] == {
            "compiled_speedup": 4.5,
            "compiled_ops_per_sec": 20_000,
            "cloop_engaged": 1,
        }
        assert spec["require"] == {"correct": True}


def test_the_coverage_figures_are_read_off_the_kernels_gcov_block():
    from benchmarks import ckernel_coverage

    summary = (
        "File 'src/repro/sim/_ckernel.c'\n"
        "Lines executed:94.36% of 1738\n"
        "Branches executed:98.77% of 1300\n"
        "Taken at least once:81.92% of 1300\n"
        "Calls executed:94.99% of 778\n"
        "File '/usr/include/python3.11/object.h'\n"
        "Lines executed:100.00% of 4\n"
        "Taken at least once:50.00% of 2\n"
    )
    assert ckernel_coverage.parse(summary) == {
        "lines_pct": 94.36, "lines": 1738,
        "branches_taken_pct": 81.92, "branches": 1300,
    }
