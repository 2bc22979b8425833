"""Unit tests for the benchmark floor gate (benchmarks/check_bench_floors.py)
and the single-source-of-truth contract of benchmarks/baselines.json."""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks import check_bench_floors

REPO = Path(__file__).resolve().parent.parent
BASELINES_PATH = REPO / "benchmarks" / "baselines.json"


def write(tmp_path, name, payload):
    (tmp_path / name).write_text(json.dumps(payload))


def gate(tmp_path, baselines) -> int:
    write(tmp_path, "baselines.json", baselines)
    return check_bench_floors.main(
        [
            "--baselines", str(tmp_path / "baselines.json"),
            "--artifact-dir", str(tmp_path),
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

    def test_optional_floor_is_skipped_when_null_and_held_when_measured(
        self, tmp_path
    ):
        # The shape of bench_workload's compiled_ops_per_sec: null on a leg
        # without the C extension, a gated number on the leg with it.
        optional = {
            "some_bench": {
                **BASE["some_bench"],
                "optional_floors": {"compiled_ops_per_sec": 20000},
            }
        }
        fresh = {"speedup": 3.1, "results_identical": True}
        write(tmp_path, "fresh.json", {**fresh, "compiled_ops_per_sec": None})
        assert gate(tmp_path, optional) == 0
        write(tmp_path, "fresh.json", {**fresh, "compiled_ops_per_sec": 80000})
        assert gate(tmp_path, optional) == 0
        write(tmp_path, "fresh.json", {**fresh, "compiled_ops_per_sec": 19999})
        assert gate(tmp_path, optional) == 1

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


class TestCommittedBaselines:
    def test_baselines_parse_and_cover_the_ci_benches(self):
        baselines = json.loads(BASELINES_PATH.read_text())
        benches = {k for k in baselines if not k.startswith("_")}
        assert benches == {
            "smoke_benchmark",
            "bench_dataplane",
            "bench_report_wallclock",
            "bench_workload",
        }
        for spec in (baselines[k] for k in benches):
            assert spec["artifact"].endswith(".json")
            assert spec.get("floors") or spec.get("require")

    def test_bench_scripts_read_floors_from_baselines(self):
        # Single source of truth: the scripts' module-level floors must be
        # exactly the committed numbers, not re-declared constants.
        from benchmarks import bench_dataplane, smoke_benchmark

        baselines = json.loads(BASELINES_PATH.read_text())
        assert (
            smoke_benchmark.REQUIRED_SPEEDUP
            == baselines["smoke_benchmark"]["floors"]["speedup"]
        )
        assert (
            bench_dataplane.REQUIRED_SPEEDUP
            == baselines["bench_dataplane"]["floors"]["speedup"]
        )
        assert (
            bench_dataplane.REQUIRED_MEMORY_RATIO
            == baselines["bench_dataplane"]["floors"]["memory_ratio"]
        )

    def test_workload_bench_reads_floors_from_baselines(self):
        from benchmarks import bench_workload

        baselines = json.loads(BASELINES_PATH.read_text())
        floors = baselines["bench_workload"]["floors"]
        assert bench_workload.REQUIRED_OPS_PER_SEC == floors["ops_per_sec"]
        assert bench_workload.REQUIRED_OPS_PER_MIB == floors["ops_per_mib"]
        # the pure-Python legs keep their floor; a build with the C
        # extension answers to a higher one of its own
        optional = baselines["bench_workload"]["optional_floors"]
        assert (
            bench_workload.REQUIRED_COMPILED_OPS_PER_SEC
            == optional["compiled_ops_per_sec"]
            > floors["ops_per_sec"]
        )
        assert baselines["bench_workload"]["require"] == {
            "pinned": True,
            "scale_served": True,
            "memory_served": True,
        }
