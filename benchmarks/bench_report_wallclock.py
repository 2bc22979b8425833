#!/usr/bin/env python3
"""Wall-clock benchmark: one packed campaign vs sequential per-experiment sweeps.

The PR-2 report pipeline swept experiments one ``ScenarioSuite`` at a time:
with W workers and only ``seeds`` cells per suite, every experiment's tail
leaves workers idle — worst for EXP-7, whose cells run for seconds. The
campaign pipeline flattens all experiments into one cost-ordered cell pool
on a single worker pool, so the EXP-7 tail overlaps the cheap cells.

This script times both paths on identical cells and workers, verifies the
numbers are identical (the packing must never change results), and writes a
machine-readable artifact. Usage::

    PYTHONPATH=src python benchmarks/bench_report_wallclock.py \\
        [--seeds N] [--workers N] [--out bench_wallclock.json] \\
        [--min-speedup X]

``--min-speedup`` exits non-zero below the floor; the default 0.0 is
report-only, because the win is parallel-tail overlap — on a single-CPU
machine (or ``--workers 1``) both paths degenerate to the same serial
compute and the honest speedup is ~1.0x. With >= 2 real cores, the packed
campaign beats the sequential path well past 1.3x at default seeds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.analysis.experiments import (  # noqa: E402
    ALL_EXPERIMENTS,
    EXPERIMENT_REGISTRY,
    Campaign,
    aggregate_sweep,
    sweep_rows,
)


def scrub(outcome_by_key: dict) -> str:
    """The deterministic portion of per-experiment results, for comparison."""
    payload = {}
    for key, result in outcome_by_key.items():
        payload[key] = {
            "rows": sweep_rows(result),
            "aggregated": (
                aggregate_sweep(key, result)[1]
                if EXPERIMENT_REGISTRY[key].report is not None
                else None
            ),
        }
    return json.dumps(payload, sort_keys=True, default=repr)


def run_sequential(
    keys: list[str], seeds: int, workers: int | None
) -> tuple[float, str, int]:
    """The PR-2 shape: one single-experiment pool per experiment, in turn.

    Returns ``(elapsed, scrubbed results, failed cells)`` — the result
    objects themselves are released before the other path runs, so one
    path's retained heap never inflates the other's GC time.
    """
    results = {}
    started = time.perf_counter()
    for key in keys:
        outcome = Campaign([key], seeds=seeds).run(workers=workers)
        results[key] = outcome.experiment(key)
    elapsed = time.perf_counter() - started
    failed = sum(len(r.failures()) for r in results.values())
    return elapsed, scrub(results), failed


def run_packed(
    keys: list[str], seeds: int, workers: int | None
) -> tuple[float, str, int]:
    """The campaign shape: every cell of every experiment on one pool."""
    started = time.perf_counter()
    outcome = Campaign(keys, seeds=seeds).run(workers=workers)
    elapsed = time.perf_counter() - started
    results = {key: outcome.experiment(key) for key in keys}
    failed = sum(len(r.failures()) for r in results.values())
    return elapsed, scrub(results), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=2)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", default="bench_wallclock.json")
    # The default floor lives in baselines.json (single source of truth,
    # shared with check_bench_floors.py); 0.0 there means report-only.
    baselines = json.loads(
        (Path(__file__).with_name("baselines.json")).read_text()
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=baselines["bench_report_wallclock"]["floors"]["speedup"],
        help="fail below this packed-vs-sequential speedup (0 = report only)",
    )
    args = parser.parse_args(argv)

    keys = list(ALL_EXPERIMENTS)
    workers = args.workers
    cpus = os.cpu_count() or 1
    print(
        f"timing {len(keys)} experiments x {args.seeds} seed(s), "
        f"workers={workers if workers is not None else f'auto ({cpus} cpus)'}",
        file=sys.stderr,
    )

    sequential_s, sequential_scrub, __ = run_sequential(keys, args.seeds, workers)
    print(f"sequential per-experiment sweeps: {sequential_s:.2f}s", file=sys.stderr)
    gc.collect()
    packed_s, packed_scrub, failed_cells = run_packed(keys, args.seeds, workers)
    print(f"packed one-pool campaign:         {packed_s:.2f}s", file=sys.stderr)

    matches = sequential_scrub == packed_scrub
    speedup = sequential_s / packed_s if packed_s else float("inf")
    artifact = {
        "benchmark": "benchmarks/bench_report_wallclock.py",
        "python": platform.python_version(),
        "cpus": cpus,
        "workers": workers,
        "seeds": args.seeds,
        "experiments": len(keys),
        "cells": len(Campaign(keys, seeds=args.seeds).cells()),
        "sequential_s": round(sequential_s, 3),
        "packed_s": round(packed_s, 3),
        "speedup": round(speedup, 3),
        "results_identical": matches,
        "cells_failed": failed_cells,
        "cost_hints": {key: EXPERIMENT_REGISTRY[key].cost for key in keys},
    }
    Path(args.out).write_text(json.dumps(artifact, indent=2) + "\n")
    print(
        f"speedup {speedup:.2f}x, results identical: {matches}; wrote {args.out}",
        file=sys.stderr,
    )

    if not matches:
        print("FAIL: packed campaign changed results", file=sys.stderr)
        return 1
    if failed_cells:
        print(f"FAIL: {failed_cells} cell(s) raised", file=sys.stderr)
        return 1
    if speedup < args.min_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x below floor {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
