"""Tests of the benchmark harness itself; run with ``pytest benchmarks/perf``.

Not part of the tier-1 suite (``testpaths`` is ``tests``): the module-scoped
fixture runs every workload once in ``--quick`` mode, traced and untraced,
which takes about half a minute.
"""

from __future__ import annotations

import itertools
import json
import re
import subprocess
import sys

import pytest

from benchmarks.perf import cli, model, spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """``--quick --traced`` over all five workloads: (exit code, document)."""
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    result = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--quick", "--traced",
         "--out", str(out)],
        cwd=spec.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.is_file(), result.stdout[-2000:] + result.stderr[-2000:]
    return result, json.loads(out.read_text())


def test_benchmark_json_names_what_the_harness_declares():
    declared = spec.load_benchmark_json()
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert declared == spec.render_benchmark_json(bounds, declared["run_seconds"])
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    names = [
        entry["name"]
        for block in ("workloads", "end_to_end", "per_layer")
        for entry in declared[block]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_quick_emits_exactly_the_declared_names(quick_run):
    result, document = quick_run
    assert result.returncode == 0, result.stdout[-2000:]
    assert document["claim"] is None
    assert json.loads(result.stdout.strip().splitlines()[-1])["claim"] is None
    runs = {(run["workload"], run["trace"]): run for run in document["runs"]}
    assert set(runs) == set(itertools.product(spec.WORKLOADS, (0, 1)))
    for (__, trace), run in runs.items():
        expected = spec.PER_LAYER if trace else spec.END_TO_END
        assert list(run["metrics"]) == list(expected)
        for name, (unit, __) in expected.items():
            assert run["metrics"][name]["unit"] == unit
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert all(len(leg["wall_s"]) >= 1 for leg in run["legs"].values())
    for (__, trace), run in runs.items():
        if not trace:
            assert all(m["value"] > 0 for m in run["metrics"].values())


def test_traced_outcomes_equal_the_untraced_ones(quick_run):
    __, document = quick_run
    for run in document["runs"]:
        if not run["trace"] or run["workload"] == "report_campaign":
            continue
        traced_checks = [
            check for check in run["checks"]
            if "traced outcome equals the untraced one" in check["name"]
        ]
        assert traced_checks and all(check["ok"] for check in traced_checks)
        layers = {name: m["value"] for name, m in run["metrics"].items()}
        spans = sum(
            span["seconds"] for span in run["spans"]
            if span["parent"] == "sim.run_until"
        )
        assert spans == pytest.approx(layers["sim.run_until_s"], rel=0.02)


def test_a_broken_digest_fails_the_run(monkeypatch, tmp_path, capsys):
    counter = itertools.count()
    monkeypatch.setattr(model, "run_digest", lambda sim: next(counter))
    code = cli.main([
        "--phase", "measure", "--workload", "dense_gossip", "--quick",
        "--scratch", str(tmp_path),
    ])
    document = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not document["correct"]
    assert document["failed"] / document["attempted"] > 0
