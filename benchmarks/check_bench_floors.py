#!/usr/bin/env python3
"""CI gate: compare fresh benchmark artifacts against the committed floors.

``benchmarks/baselines.json`` holds every benchmark floor of CI. This gate
reads the fresh JSON artifacts a CI step wrote and fails, with a readable
delta table, when any measured figure sits below its floor or any required
exact value mismatches::

    python benchmarks/check_bench_floors.py [--baselines benchmarks/baselines.json]
                                            [--artifact-dir .] [--step bench]

An entry belongs to the CI step its ``"step"`` names (``"bench"`` when it
names none), and the gate checks one step's entries: the ``bench`` step's
after the performance ruler ran (``python -m benchmarks.perf --quick
--trace 1 --out bench_perf_quick.json``), ``--step sanitizer`` the C
kernel's coverage figures after the sanitizer step measured them. The
ruler's ``--out`` document is read through :func:`ruler_figures`; any other
artifact is a flat object of figures.

Exit codes: 0 all floors cleared; 1 a floor violated, a required value
mismatched, or an expected artifact or figure is missing (a bench that
silently never ran must not pass the gate).

To see the gate fail deliberately, raise any floor in ``baselines.json``
above its measured value (e.g. ``perf_ruler.floors.compiled_speedup`` to
1000) and rerun: the delta table flags the figure and the process exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

try:  # package import (pytest / -m); falls back to script-directory import
    from benchmarks.step_summary import markdown_table, publish_step_summary
except ImportError:  # pragma: no cover - exercised by `python benchmarks/...`
    from step_summary import markdown_table, publish_step_summary


def ruler_figures(document: dict) -> dict:
    """The figures the floors name, read off the ruler's ``--out`` document.

    ``correct`` is whether every run the document holds passed its checks;
    ``compiled_speedup`` is ``dense_gossip``'s traced C-loop ticks/s over
    its legacy-kernel ticks/s; ``compiled_ops_per_sec`` is ``kv_direct``'s
    untraced throughput; ``cloop_engaged`` is ``dense_gossip``'s traced
    ``sim.cloop_engaged``. A figure whose workload or trace pass the
    document lacks is None.
    """
    runs = document.get("runs") or []
    metrics = {(run["workload"], run["trace"]): run["metrics"] for run in runs}

    def value(workload: str, trace: int, name: str):
        metric = metrics.get((workload, trace), {}).get(name)
        return None if metric is None else metric["value"]

    compiled = value("dense_gossip", 1, "sim.kernel.compiled-loop.ticks_per_s")
    legacy = value("dense_gossip", 1, "sim.kernel.legacy.ticks_per_s")
    ops = value("kv_direct", 0, "throughput_per_s")
    return {
        "correct": bool(runs) and all(run["correct"] for run in runs),
        "compiled_speedup": (
            round(compiled / legacy, 2) if compiled is not None and legacy else None
        ),
        "compiled_ops_per_sec": None if ops is None else round(ops),
        "cloop_engaged": value("dense_gossip", 1, "sim.cloop_engaged"),
    }


def iter_checks(baselines: dict, artifact_dir: Path, step: str = "bench"):
    """Yield one check row per (bench, figure) of the entries of ``step``:
    floors then required values.

    Row shape: ``(bench, figure, kind, expected, measured, ok)`` where
    ``kind`` is ``">="`` for floors and ``"=="`` for required exact values;
    ``measured`` is None when the artifact is missing or lacks the figure.
    """
    for bench, spec in baselines.items():
        if bench.startswith("_") or spec.get("step", "bench") != step:
            continue
        artifact = artifact_dir / spec["artifact"]
        fresh: dict = {}
        if artifact.is_file():
            fresh = json.loads(artifact.read_text())
            if "runs" in fresh:
                fresh = ruler_figures(fresh)
        else:
            yield (bench, "(artifact)", "exists", spec["artifact"], None, False)
        for metric, floor in spec.get("floors", {}).items():
            measured = fresh.get(metric)
            ok = isinstance(measured, (int, float)) and measured >= floor
            yield (bench, metric, ">=", floor, measured, ok)
        for metric, expected in spec.get("require", {}).items():
            measured = fresh.get(metric)
            yield (bench, metric, "==", expected, measured, measured == expected)


def render_table(rows: list[tuple]) -> str:
    """The delta table: one line per check, floors with their margins."""
    headers = ("benchmark", "metric", "check", "expected", "measured",
               "margin", "status")
    body = []
    for bench, metric, kind, expected, measured, ok in rows:
        if kind == ">=" and isinstance(measured, (int, float)):
            margin = f"{measured - expected:+.2f}"
        else:
            margin = "-"
        body.append(
            (
                bench,
                metric,
                kind,
                str(expected),
                "MISSING" if measured is None else str(measured),
                margin,
                "ok" if ok else "FAIL",
            )
        )
    widths = [
        max([len(headers[i]), *(len(row[i]) for row in body)])
        for i in range(len(headers))
    ]
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    lines += [
        " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
        for row in body
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baselines",
        default=str(Path(__file__).with_name("baselines.json")),
        help="committed floor definitions (default: benchmarks/baselines.json)",
    )
    parser.add_argument(
        "--artifact-dir",
        default=".",
        help="directory holding the fresh JSON artifacts (default: cwd)",
    )
    parser.add_argument(
        "--step",
        default="bench",
        help="check the entries of this CI step (default: bench)",
    )
    args = parser.parse_args(argv)

    baselines = json.loads(Path(args.baselines).read_text())
    rows = list(iter_checks(baselines, Path(args.artifact_dir), args.step))
    print(render_table(rows))
    failures = [row for row in rows if not row[5]]
    # Mirror the delta table onto the GitHub job summary so a floor
    # regression is readable without opening the step log; a plain no-op
    # when $GITHUB_STEP_SUMMARY is unset (the stdout table above remains).
    verdict = (
        f"**FAIL** — {len(failures)} check(s) violated"
        if failures
        else f"**OK** — all {len(rows)} checks cleared"
    )
    publish_step_summary(
        f"### Benchmark floor gate\n\n{verdict}\n\n"
        + markdown_table(
            ("benchmark", "metric", "check", "expected", "measured", "status"),
            [
                (bench, metric, f"`{kind}`", expected,
                 "MISSING" if measured is None else measured,
                 "ok" if ok else "**FAIL**")
                for bench, metric, kind, expected, measured, ok in rows
            ],
        )
    )
    if failures:
        print(
            f"\nFAIL: {len(failures)} benchmark floor check(s) failed "
            f"(floors: {args.baselines})"
        )
        return 1
    print(f"\nOK: all {len(rows)} benchmark floor checks cleared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
