"""Command line of the benchmark: orchestration, set-up timing, reporting.

One invocation is a parent process that never imports ``repro``. It builds
the C extension when the checkout has none, times set-up in fresh
interpreters, and runs each workload in a child of its own so that peak
memory is the workload's alone. See README.md for the modes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.perf import spec
from benchmarks.perf.timing import composite, peak_rss_mib, spread_summary

ROOT = spec.ROOT
ENTRY = Path(__file__).with_name("__main__.py")
EXTENSION_SOURCES = (ROOT / "src/repro/sim/_ckernel.c", ROOT / "setup.py")
#: fresh interpreters timed for ``setup_s`` (its median is reported).
SETUP_PROBES = 5
#: a child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170
QUICK_SECONDS = 0.5


# -- building ----------------------------------------------------------------


def ensure_extension() -> None:
    """Build ``repro.sim._ckernel`` in place unless an up-to-date one exists.

    A fresh checkout holds no build products, so its first run compiles;
    later runs in the same checkout find the extension newer than its
    sources and skip the step.
    """
    newest_source = max(path.stat().st_mtime for path in EXTENSION_SOURCES)
    built = list((ROOT / "src/repro/sim").glob("_ckernel*.so"))
    if built and min(path.stat().st_mtime for path in built) >= newest_source:
        return
    result = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace", "--force"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if result.returncode != 0 or not list((ROOT / "src/repro/sim").glob("_ckernel*.so")):
        sys.stderr.write(result.stdout + result.stderr)
        raise SystemExit("benchmarks.perf: building repro.sim._ckernel failed")


# -- children ----------------------------------------------------------------


def _run_child(arguments: list[str]) -> tuple[int, str]:
    """Run this package in a fresh interpreter; returns (exit code, stdout).

    The child leads its own process group, so a timeout takes its worker
    processes down with it.
    """
    process = subprocess.Popen(
        [sys.executable, str(ENTRY), *arguments],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, __ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit(f"benchmarks.perf: child timed out: {arguments}")
    return process.returncode, stdout


def _child_arguments(args: argparse.Namespace, workload: str, phase: str,
                     trace: int, scratch: Path) -> list[str]:
    arguments = [
        "--phase", phase, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--scratch", str(scratch),
    ]
    return arguments + (["--quick"] if args.quick else [])


def time_setup(args: argparse.Namespace, workload: str, scratch: Path) -> list[float]:
    """Wall time of fresh interpreters that import ``repro``, build the
    workload's inputs and run its warm-up, then exit."""
    samples = []
    for __ in range(2 if args.quick else SETUP_PROBES):
        started = time.perf_counter()
        code, __ = _run_child(_child_arguments(args, workload, "setup", 0, scratch))
        samples.append(time.perf_counter() - started)
        if code != 0:
            raise SystemExit(f"benchmarks.perf: set-up of {workload} failed")
    return samples


def run_workload(args: argparse.Namespace, workload: str, trace: int,
                 scratch: Path) -> dict:
    """One workload, one trace mode: the child's document, with ``setup_s``
    added to an untraced run's metrics."""
    setup = [] if trace else time_setup(args, workload, scratch)
    code, stdout = _run_child(
        _child_arguments(args, workload, "measure", trace, scratch)
    )
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"benchmarks.perf: {workload} produced no result")
    document = json.loads(lines[-1])
    if not trace:
        document["setup_samples_s"] = setup
        document["metrics"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            **document["metrics"],
        }
    if code != 0:
        document["correct"] = False
    return document


# -- the measuring child -----------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """``--phase setup`` stops after set-up; ``--phase measure`` prints the
    workload's document as one JSON line."""
    from repro.sim import HAS_COMPILED_LOOP

    from benchmarks.perf.model import Context
    from benchmarks.perf.workloads import measure_workload, set_up

    ctx = Context(
        seed=args.seed, seconds=args.seconds, quick=args.quick,
        trace=bool(args.trace), scratch=Path(args.scratch),
    )
    if args.phase == "setup":
        set_up(ctx, args.workload)
        return 0
    outcome = measure_workload(ctx, args.workload)
    legs = outcome.legs
    units = outcome.units_per_pass
    if ctx.trace:
        unknown = set(outcome.layers) - set(spec.PER_LAYER)
        if unknown:
            raise SystemExit(f"undeclared per-layer metrics: {sorted(unknown)}")
        metrics = {
            name: {"value": outcome.layers.get(name, 0), "unit": unit}
            for name, (unit, __) in spec.PER_LAYER.items()
        }
    else:
        wall = sum(composite(times.wall) for times in legs.values())
        cpu = sum(composite(times.cpu) for times in legs.values())
        values = {
            "throughput_per_s": units / wall,
            "cpu_us_per_unit": cpu / units * 1e6,
            "peak_rss_mib": peak_rss_mib(),
        }
        metrics = {
            name: {"value": values[name], "unit": spec.END_TO_END[name][0]}
            for name in values
        }
    document = {
        "workload": outcome.workload,
        "trace": int(ctx.trace),
        "seed": ctx.seed,
        "quick": ctx.quick,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "has_compiled_loop": HAS_COMPILED_LOOP,
        "unit_of_work": spec.WORKLOADS[outcome.workload][0],
        "units_per_pass": units,
        "repeats": len(next(iter(legs.values())).wall),
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "checks": [vars(check) for check in outcome.checks],
        "legs": {
            name: {"wall_s": t.wall, "cpu_s": t.cpu, "build_s": t.build}
            for name, t in {**legs, **outcome.extra_legs}.items()
        },
        "spans": outcome.spans,
    }
    print(json.dumps(document))
    return 0 if outcome.correct else 1


# -- reporting ---------------------------------------------------------------


def print_document(document: dict) -> None:
    """Every metric by name with its unit, the repeats' spread, the checks."""
    block = "per-layer" if document["trace"] else "end-to-end"
    print(
        f"== {document['workload']}  seed={document['seed']}  {block}  "
        f"{document['repeats']} repeats of {document['units_per_pass']} "
        f"{document['unit_of_work']} =="
    )
    for name, metric in document["metrics"].items():
        print(f"  {name:<46} {metric['value']:>16.6g} {metric['unit']}")
    for name, leg in document["legs"].items():
        s = spread_summary(leg["wall_s"])
        print(
            f"  leg {name:<22} composite {s['composite']:.4f} s  fastest "
            f"{s['fastest']:.4f}  q1 {s['q1']:.4f}  median {s['median']:.4f}  "
            f"q3 {s['q3']:.4f}  ({len(leg['wall_s'])} repeats)"
        )
    fraction = document["failed"] / document["attempted"]
    print(
        f"  failed_fraction {fraction:.6g} "
        f"({document['failed']} of {document['attempted']})"
    )
    for check in document["checks"]:
        verdict = "ok  " if check["ok"] else "FAIL"
        detail = "" if check["ok"] or not check["detail"] else f": {check['detail']}"
        print(f"  check {verdict} {check['name']}{detail}")


def contract_line(document: dict) -> str:
    """The last line a single-workload run prints."""
    return json.dumps({
        key: document[key] for key in ("correct", "attempted", "failed", "metrics")
    })


def selfcheck(sets: list[list[dict]]) -> list[str]:
    """Differences between two back-to-back sets that exceed a bound."""
    bounds = {
        metric["name"]: metric["bound"]
        for metric in spec.load_benchmark_json()["end_to_end"]
    }
    problems = []
    for first, second in zip(*sets):
        for name, bound in bounds.items():
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if abs(b - a) / a > bound:
                problems.append(
                    f"{first['workload']}.{name}: {a:.6g} then {b:.6g} "
                    f"(bound {bound})"
                )
    return problems


# -- entry -------------------------------------------------------------------


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds only the generated inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of timed repeats per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 10 and 2 repeats: a smoke run")
    parser.add_argument("--out", help="write one JSON document to this file")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload twice; fail if the sets differ "
                        "by more than a bound")
    parser.add_argument("--phase", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = (
            QUICK_SECONDS if args.quick
            else spec.load_benchmark_json()["run_seconds"]
        )
    return args


def main(argv: list[str] | None = None) -> int:
    if not all(path.is_file() for path in EXTENSION_SOURCES):
        sys.stderr.write(
            "benchmarks.perf: no repro sources under this checkout; nothing "
            "to measure\n"
        )
        return 2
    args = parse(argv)
    if args.phase is not None:
        return child_main(args)
    ensure_extension()
    scratch = ROOT / ".bench_build" / "perf" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return orchestrate(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def orchestrate(args: argparse.Namespace, scratch: Path) -> int:
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    # One workload prints the block --trace selects; the full set always
    # prints the end-to-end block and adds the per-layer one when traced.
    if args.selfcheck:
        modes = [0]
    else:
        modes = [args.trace] if args.workload else [0, 1][: args.trace + 1]
    sets = []
    for __ in range(2 if args.selfcheck else 1):
        documents = []
        for workload in workloads:
            for trace in modes:
                document = run_workload(args, workload, trace, scratch)
                print_document(document)
                documents.append(document)
        sets.append(documents)
    documents = [document for documents in sets for document in documents]
    correct = all(document["correct"] for document in documents)
    problems = selfcheck(sets) if args.selfcheck else []
    for problem in problems:
        print(f"selfcheck FAIL {problem}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "quick": args.quick, "runs": documents,
            "selfcheck_problems": problems, "claim": None,
        }))
    if args.workload and not args.selfcheck:
        print(contract_line(documents[0]))
    else:
        print(json.dumps({
            "seed": args.seed,
            "correct": correct,
            "runs": [
                {key: document[key] for key in
                 ("workload", "trace", "correct", "attempted", "failed", "metrics")}
                for document in documents
            ],
            "selfcheck_problems": problems,
            "claim": None,
        }))
    return 0 if correct and not problems else 1
