#!/usr/bin/env python3
"""CI workload benchmark: a million-operation EXP-11 cell at streaming cost.

Three legs, all on the open-loop workload subsystem (:mod:`repro.workload`):

- **scale** — the EXP-11 ``direct``-stack cell grown to one million
  operations on the default kernel (the C tick loop when the extension
  loaded, ``packed`` otherwise) with ``record="metrics"`` and the
  streaming :class:`~repro.workload.LatencyObserver` (both fold raw step
  fields, so no step builds a record). Every operation must complete
  and wall-clock throughput is gated by the ``ops_per_sec`` floor, which
  the pure-Python legs must clear too; with the C extension loaded the same
  figure is reported again as ``compiled_ops_per_sec`` and held to a floor
  of its own (the three counter draws per operation run in C there).
- **memory** — the same configuration at 100k operations under
  ``tracemalloc``: the observer's bucketed histogram and the bounded client
  mode must keep peak traced memory independent of the operation count (no
  per-operation objects; a retained ~56-byte object per op would already
  cost >5 MiB here). Gated as ``ops_per_mib`` (operations per peak MiB).
- **pinned** — a small EXP-11-shaped cell run on the packed *and* legacy
  kernels, with streaming metrics *and* a full-fidelity post-hoc
  recomputation (:func:`~repro.workload.latency_from_run`): all four
  summaries must be identical (``pinned`` is required ``== true``), the
  executable statement that workload numbers are engine-independent.

Nominal on a dev container: ~44k ops/s without the extension, ~117k ops/s
with it, and ~190k ops per peak MiB; CI fails below the conservative floors
in ``benchmarks/baselines.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_workload.py [--ops N] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

from repro.sim import HAS_COMPILED
from repro.workload import (
    WorkloadSpec,
    latency_from_run,
    workload_sim,
)

CLIENTS = 8
SCALE_OPS = 1_000_000
MEMORY_OPS = 100_000
#: mean_gap=1 keeps the offered load (CLIENTS ops/tick) under the serving
#: capacity of 3 direct replicas at message_batch=64, so the run is busy but
#: not saturated: every operation completes inside the horizon.
MESSAGE_BATCH = 64
#: floors live in baselines.json only, shared with check_bench_floors.py.
_BASELINES = json.loads(Path(__file__).with_name("baselines.json").read_text())
REQUIRED_OPS_PER_SEC = _BASELINES["bench_workload"]["floors"]["ops_per_sec"]
REQUIRED_OPS_PER_MIB = _BASELINES["bench_workload"]["floors"]["ops_per_mib"]
#: held only when the C extension loaded: the draws of every operation run
#: through its ``draw_unit`` (``ops_per_sec`` also gates the pure-Python
#: legs and stays where it is).
REQUIRED_COMPILED_OPS_PER_SEC = _BASELINES["bench_workload"]["optional_floors"][
    "compiled_ops_per_sec"
]


def _spec(total_ops: int) -> WorkloadSpec:
    return WorkloadSpec(
        clients=CLIENTS,
        ops_per_client=total_ops // CLIENTS,
        mean_gap=1,
        keys=64,
        seed=1,
    )


def _build(total_ops: int):
    return workload_sim(
        _spec(total_ops),
        stack="direct",
        record="metrics",
        message_batch=MESSAGE_BATCH,
    )


def scale_leg(total_ops: int) -> dict:
    sim, observer, horizon = _build(total_ops)
    assert sim._fused_run is not None, "fused loop must stay engaged"
    start = time.perf_counter()
    sim.run_until(horizon)
    elapsed = time.perf_counter() - start
    summary = observer.summary()
    return {
        "ops": summary.submitted,
        "elapsed_s": round(elapsed, 3),
        "ops_per_sec": round(summary.submitted / elapsed),
        "served": summary.served,
        "p50": summary.p50,
        "p99": summary.p99,
        "throughput_per_kilotick": summary.throughput,
    }


def memory_leg(total_ops: int) -> dict:
    tracemalloc.start()
    sim, observer, horizon = _build(total_ops)
    sim.run_until(horizon)
    __, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    summary = observer.summary()
    peak_mib = peak / 2**20
    return {
        "ops": summary.submitted,
        "served": summary.served,
        "peak_bytes": peak,
        "ops_per_mib": round(summary.submitted / peak_mib),
    }


def pinned_leg() -> dict:
    """The engine-independence pin: four paths, one summary."""
    spec = WorkloadSpec(clients=4, ops_per_client=25, mean_gap=12, seed=7)
    clients = range(3, 3 + spec.clients)
    summaries = []
    for kernel in ("packed", "legacy"):
        for record in ("metrics", "full"):
            sim, observer, horizon = workload_sim(
                spec, stack="direct", record=record, kernel=kernel
            )
            run = sim.run_until(horizon)
            summaries.append(observer.summary())
            if record == "full":
                summaries.append(latency_from_run(run, clients))
    return {
        "paths": len(summaries),
        "pinned": all(s == summaries[0] for s in summaries),
        "p99": summaries[0].p99,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ops", type=int, default=SCALE_OPS)
    parser.add_argument("--memory-ops", type=int, default=MEMORY_OPS)
    parser.add_argument("--out", default=None, help="write results as JSON")
    args = parser.parse_args()

    pinned = pinned_leg()
    print(
        f"pinned: {pinned['paths']} engine paths "
        f"{'agree' if pinned['pinned'] else 'DIVERGE'} (p99={pinned['p99']})"
    )

    memory = memory_leg(args.memory_ops)
    print(
        f"memory: {memory['ops']:,} ops at {memory['peak_bytes'] / 2**20:.2f} "
        f"MiB peak ({memory['ops_per_mib']:,} ops/MiB)"
    )

    scale = scale_leg(args.ops)
    print(
        f"scale: {scale['ops']:,} ops in {scale['elapsed_s']:.1f}s "
        f"({scale['ops_per_sec']:,} ops/s, "
        f"{'C' if HAS_COMPILED else 'pure-Python'} draws), p50={scale['p50']} "
        f"p99={scale['p99']} ticks, served={scale['served']}"
    )

    results = {
        "ops": scale["ops"],
        "elapsed_s": scale["elapsed_s"],
        "ops_per_sec": scale["ops_per_sec"],
        "compiled_ops_per_sec": scale["ops_per_sec"] if HAS_COMPILED else None,
        "scale_served": scale["served"],
        "p50": scale["p50"],
        "p99": scale["p99"],
        "throughput_per_kilotick": scale["throughput_per_kilotick"],
        "memory_ops": memory["ops"],
        "memory_served": memory["served"],
        "peak_bytes": memory["peak_bytes"],
        "ops_per_mib": memory["ops_per_mib"],
        "pinned": pinned["pinned"],
        "required_ops_per_sec": REQUIRED_OPS_PER_SEC,
        "required_ops_per_mib": REQUIRED_OPS_PER_MIB,
        "required_compiled_ops_per_sec": REQUIRED_COMPILED_OPS_PER_SEC,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}")

    failed = False
    if not pinned["pinned"]:
        print("FAIL: workload summaries diverge across engine paths")
        failed = True
    if not scale["served"] or not memory["served"]:
        print("FAIL: an open-loop run failed to serve every operation")
        failed = True
    if scale["ops_per_sec"] < REQUIRED_OPS_PER_SEC:
        print(
            f"FAIL: {scale['ops_per_sec']:,} ops/s below the "
            f"{REQUIRED_OPS_PER_SEC:,} floor"
        )
        failed = True
    if HAS_COMPILED and scale["ops_per_sec"] < REQUIRED_COMPILED_OPS_PER_SEC:
        print(
            f"FAIL: {scale['ops_per_sec']:,} ops/s below the "
            f"{REQUIRED_COMPILED_OPS_PER_SEC:,} floor of a build with the C "
            "extension (is draw_unit the C function?)"
        )
        failed = True
    if memory["ops_per_mib"] < REQUIRED_OPS_PER_MIB:
        print(
            f"FAIL: {memory['ops_per_mib']:,} ops/MiB below the "
            f"{REQUIRED_OPS_PER_MIB:,} floor"
        )
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
