#!/usr/bin/env python3
"""CI smoke benchmark: fail on a step-throughput regression of the engine.

Runs a reduced version of the sparse-traffic scenario from
``bench_engine_fastforward.py`` on both engines and compares step throughput.
The event engine nominally clears ~10-40x over naive-full on this workload;
CI fails when the measured speedup drops below the floor committed in
``benchmarks/baselines.json`` (the single source of truth for every bench
floor — see ``check_bench_floors.py``), i.e. on more than a 2x regression
against the worst nominal machines — machine-relative, so noisy runners do
not flake.

Also re-checks the fast-forward correctness invariant (byte-identical run
records across engines) so a miscompiled fast path cannot pass on speed.

Usage::

    PYTHONPATH=src python benchmarks/smoke_benchmark.py [--out bench_smoke.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core import EtobLayer
from repro.detectors import OmegaDetector
from repro.sim import (
    DEFAULT_KERNEL,
    KERNELS,
    FailurePattern,
    FixedDelay,
    ProtocolStack,
    Simulation,
)

TICKS = 40_000
#: floors live in baselines.json only, shared with check_bench_floors.py.
_BASELINES = json.loads(Path(__file__).with_name("baselines.json").read_text())
REQUIRED_SPEEDUP = _BASELINES["smoke_benchmark"]["floors"]["speedup"]


def build(*, engine: str, record: str, kernel: str) -> Simulation:
    n = 4
    pattern = FailurePattern.crash(n, {3: 30_000})
    detector = OmegaDetector(stabilization_time=0).history(pattern, seed=1)
    sim = Simulation(
        [ProtocolStack([EtobLayer()]) for _ in range(n)],
        failure_pattern=pattern,
        detector=detector,
        delay_model=FixedDelay(2),
        timeout_interval=256,
        seed=1,
        engine=engine,
        record=record,
        kernel=kernel,
    )
    sim.add_input(1, 100, ("broadcast", "a"))
    sim.add_input(2, 20_000, ("broadcast", "b"))
    return sim


def timed(engine: str, record: str, kernel: str) -> tuple[Simulation, float]:
    sim = build(engine=engine, record=record, kernel=kernel)
    start = time.perf_counter()
    sim.run_until(TICKS)
    return sim, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write results as JSON")
    parser.add_argument(
        "--kernel",
        default=DEFAULT_KERNEL,
        choices=KERNELS,
        help="data-plane kernel for every measured run (default: the "
        "default kernel of this interpreter)",
    )
    args = parser.parse_args()

    naive_full, t_naive = timed("naive", "full", args.kernel)
    event_full, _ = timed("event", "full", args.kernel)
    if naive_full.run != event_full.run:
        print("FAIL: event engine run record diverged from the naive stepper")
        return 1

    event_metrics, t_event = timed("event", "metrics", args.kernel)
    if event_metrics.network.sent_count != naive_full.network.sent_count:
        print("FAIL: metrics-fidelity run diverged (traffic count mismatch)")
        return 1

    throughput_naive = TICKS / t_naive
    throughput_event = TICKS / t_event
    speedup = throughput_event / throughput_naive
    print(
        f"step throughput: naive-full {throughput_naive:,.0f} ticks/s, "
        f"event-metrics {throughput_event:,.0f} ticks/s ({speedup:.1f}x)"
    )
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {
                    "ticks": TICKS,
                    "kernel": args.kernel,
                    "throughput_naive_tps": round(throughput_naive),
                    "throughput_event_tps": round(throughput_event),
                    "speedup": round(speedup, 2),
                    "required_speedup": REQUIRED_SPEEDUP,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote {args.out}")
    if speedup < REQUIRED_SPEEDUP:
        print(
            f"FAIL: engine speedup {speedup:.2f}x below the "
            f"{REQUIRED_SPEEDUP}x floor (>2x throughput regression)"
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
