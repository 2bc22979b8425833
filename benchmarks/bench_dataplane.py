#!/usr/bin/env python3
"""CI data-plane benchmark: dense-run full-fidelity floors for the columnar
step store and the packed struct-of-arrays kernel.

The scenario is a saturated gossip mesh: every process broadcasts on each
local timeout, tuned so a message is deliverable on most ticks — the
message-dense regime the paper's statistical experiments live in, and the
worst case for full-fidelity recording (every tick retains a step). Five
paths run the *same* trajectory (asserted byte-identical):

- **legacy** — :class:`repro.sim.observers.LegacyFullRecorder` over the
  legacy queue-of-Envelopes network: one ``StepRecord`` dataclass per tick
  retained in a plain list, the pre-PR-4 data plane and the benchmark's
  fixed denominator.
- **columnar** — ``record="full"`` on ``kernel="legacy"``: the engine's
  raw/idle fast paths append into :class:`repro.sim.runs.StepStore`
  columns; no per-step objects (the PR 4 data plane, floor ``speedup``).
- **packed** — ``record="full"`` on ``kernel="packed"``: the struct-of-
  arrays envelope pool with per-receiver shard heaps and the fused
  dense-tick loop (floor ``packed_speedup``).
- **compiled** — same, with the pool hosted by the optional C extension
  but the tick loop still in Python (``kernel="compiled"``; reported as
  ``compiled_pool_speedup``, not gated).
- **compiled-loop** — the C extension owns the tick loop itself
  (``_ckernel.run_loop``), calling back into Python only for process
  handlers (``kernel="compiled-loop"``; reported and gated as
  ``compiled_speedup``, the top of the kernel ladder). Both compiled
  rungs are skipped silently when the extension is not built, unless
  ``--require-compiled``, which additionally asserts the C loop actually
  engaged (``sim.fused_path == "c-loop"``) rather than silently degrading
  to the Python fused loop, that ``repro.sim.types.stable_hash`` is
  the extension's C function (the draw hash rides the same build), and
  that a *default* ``Simulation`` resolves to the C loop (the default rung
  is observed from the same build) — under round-robin and, at
  ``record="metrics"``, under ``scheduling="random"``.

Measured: wall-clock throughput on a long run (the legacy path additionally
decays with run length as the GC traverses millions of retained records)
and peak ``tracemalloc`` bytes on a shorter run (the per-step memory ratio
is length-independent). Nominal on a dev container: ~2.7x columnar, ~4.8x
packed, and ~7.0x compiled-loop throughput, ~3.9x lower peak memory; CI
fails below the conservative floors committed in
``benchmarks/baselines.json`` (the single source of truth shared with
``check_bench_floors.py``; single-CPU runners show ~15% timing noise and
object sizes vary per Python version). ``compiled_speedup`` lives under
``optional_floors`` there: enforced whenever measured, skipped on the
matrix legs that do not build the extension.

Usage::

    PYTHONPATH=src python benchmarks/bench_dataplane.py [--ticks N] [--out FILE]
                                                        [--require-compiled]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path
from types import BuiltinFunctionType

from repro.sim import (
    HAS_COMPILED,
    HAS_COMPILED_LOOP,
    FailurePattern,
    FixedDelay,
    LegacyFullRecorder,
    Process,
    RunRecord,
    Simulation,
)
from repro.sim.types import stable_hash

N = 4
TIMEOUT_INTERVAL = 32
WALLCLOCK_TICKS = 400_000
MEMORY_TICKS = 60_000
#: interleaved timing trials per path; the best (minimum) time of each is
#: compared, the standard defense against one-off scheduler interference.
TRIALS = 3
#: floors live in baselines.json only, shared with check_bench_floors.py.
_BASELINES = json.loads(Path(__file__).with_name("baselines.json").read_text())
REQUIRED_SPEEDUP = _BASELINES["bench_dataplane"]["floors"]["speedup"]
REQUIRED_PACKED_SPEEDUP = (
    _BASELINES["bench_dataplane"]["floors"]["packed_speedup"]
)
REQUIRED_MEMORY_RATIO = _BASELINES["bench_dataplane"]["floors"]["memory_ratio"]
#: enforced only when the compiled-loop rung actually ran (optional_floors:
#: the packed-only CI legs ship a null compiled_speedup and skip the gate).
REQUIRED_COMPILED_SPEEDUP = (
    _BASELINES["bench_dataplane"]["optional_floors"]["compiled_speedup"]
)


class Gossip(Process):
    """Saturating traffic source: broadcast to the peers on every timeout."""

    def on_timeout(self, ctx):
        ctx.send_all(("beat", ctx.time), include_self=False)

    def on_message(self, ctx, sender, payload):
        pass


def build(path: str) -> tuple[Simulation, RunRecord]:
    """A simulation plus the run record its recording path fills."""
    if path == "legacy":
        legacy_run = RunRecord(
            N, FailurePattern.no_failures(N), steps=[], seed=0
        )
        sim = Simulation(
            [Gossip() for _ in range(N)],
            delay_model=FixedDelay(2),
            timeout_interval=TIMEOUT_INTERVAL,
            seed=0,
            record="none",
            kernel="legacy",
            observers=[LegacyFullRecorder(legacy_run)],
        )
        return sim, legacy_run
    kernel = "legacy" if path == "columnar" else path
    sim = Simulation(
        [Gossip() for _ in range(N)],
        delay_model=FixedDelay(2),
        timeout_interval=TIMEOUT_INTERVAL,
        seed=0,
        record="full",
        kernel=kernel,
    )
    return sim, sim.run


def timed_run(path: str, ticks: int) -> tuple[Simulation, RunRecord, float]:
    sim, run = build(path)
    start = time.perf_counter()
    sim.run_until(ticks)
    return sim, run, time.perf_counter() - start


def peak_memory(path: str, ticks: int) -> int:
    tracemalloc.start()
    sim, __ = build(path)
    sim.run_until(ticks)
    __, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ticks", type=int, default=WALLCLOCK_TICKS)
    parser.add_argument("--memory-ticks", type=int, default=MEMORY_TICKS)
    parser.add_argument("--out", default=None, help="write results as JSON")
    parser.add_argument(
        "--require-compiled",
        action="store_true",
        help="fail instead of skipping when the C extension is not built "
        "(the CI compiled-kernel leg must not silently measure nothing)",
    )
    args = parser.parse_args()

    if args.require_compiled and not HAS_COMPILED_LOOP:
        print(
            "FAIL: --require-compiled but repro.sim._ckernel is not built, "
            "or not from the _ckernel.c beside it; run "
            "`python setup.py build_ext --inplace`"
        )
        return 1
    if args.require_compiled and not isinstance(stable_hash, BuiltinFunctionType):
        # the extension also carries the draw hash; a build that loaded but
        # left the Python body bound is a ~20x slower draw nobody would see
        print(
            "FAIL: --require-compiled but repro.sim.types.stable_hash is "
            "not the C function of repro.sim._ckernel"
        )
        return 1
    if args.require_compiled:
        # the default rung is observed from the same build: a default
        # Simulation that is not on the C loop means every experiment and
        # falsifier trial silently runs a slower rung than the one timed here
        default = Simulation([Gossip() for _ in range(N)])
        if default.fused_path != "c-loop":
            print(
                "FAIL: --require-compiled but a default Simulation resolves "
                f"to kernel={default.kernel!r}, fused_path="
                f"{default.fused_path!r} ({default.fused_reason})"
            )
            return 1
        # ... under random scheduling too: every falsifier trial and both
        # pinned witnesses run there, and nothing below the C loop is fused
        adversary = Simulation(
            [Gossip() for _ in range(N)], scheduling="random", record="metrics"
        )
        if adversary.fused_path != "c-loop":
            print(
                "FAIL: --require-compiled but a default scheduling='random', "
                "record='metrics' Simulation resolves to fused_path="
                f"{adversary.fused_path!r} ({adversary.fused_reason})"
            )
            return 1
    paths = ["legacy", "columnar", "packed"]
    if HAS_COMPILED:
        paths.append("compiled")
    if HAS_COMPILED_LOOP:
        paths.append("compiled-loop")

    # Interleaved trials; the first round doubles as the correctness gate:
    # every path must produce a byte-identical run record and see the same
    # traffic (the differential oracle for the kernel data planes).
    times: dict[str, list[float]] = {path: [] for path in paths}
    sims: dict[str, Simulation] = {}
    runs: dict[str, RunRecord] = {}
    for trial in range(TRIALS):
        for path in paths:
            sims[path], runs[path], elapsed = timed_run(path, args.ticks)
            times[path].append(elapsed)
        if trial == 0:
            reference = runs["legacy"]
            delivered = sims["legacy"].network.delivered_count
            for path in paths[1:]:
                if runs[path] != reference:
                    print(
                        f"FAIL: {path} run record diverged from the legacy "
                        "recorder"
                    )
                    return 1
                if sims[path].network.delivered_count != delivered:
                    print(
                        f"FAIL: {path} path observed different traffic than "
                        "the legacy recorder"
                    )
                    return 1
            if "compiled-loop" in sims:
                engaged = sims["compiled-loop"].fused_path == "c-loop"
                if args.require_compiled and not engaged:
                    print(
                        "FAIL: --require-compiled but the compiled-loop "
                        "rung degraded to the "
                        f"{sims['compiled-loop'].fused_path!r} fused path "
                        "on the bench scenario"
                    )
                    return 1

    throughput = {path: args.ticks / min(times[path]) for path in paths}
    speedup = throughput["columnar"] / throughput["legacy"]
    packed_speedup = throughput["packed"] / throughput["legacy"]
    compiled_pool_speedup = (
        throughput["compiled"] / throughput["legacy"]
        if "compiled" in throughput
        else None
    )
    # compiled_speedup is the gated top-of-ladder number: the C tick loop,
    # not just the C envelope pool.
    compiled_speedup = (
        throughput["compiled-loop"] / throughput["legacy"]
        if "compiled-loop" in throughput
        else None
    )

    peak_columnar = peak_memory("columnar", args.memory_ticks)
    peak_legacy = peak_memory("legacy", args.memory_ticks)
    memory_ratio = peak_legacy / peak_columnar

    results = {
        "ticks": args.ticks,
        "messages_delivered": sims["packed"].network.delivered_count,
        "steps_recorded": len(runs["packed"].steps),
        "throughput_legacy_tps": round(throughput["legacy"]),
        "throughput_columnar_tps": round(throughput["columnar"]),
        "throughput_packed_tps": round(throughput["packed"]),
        "throughput_compiled_tps": (
            round(throughput["compiled"]) if "compiled" in throughput else None
        ),
        "throughput_compiled_loop_tps": (
            round(throughput["compiled-loop"])
            if "compiled-loop" in throughput
            else None
        ),
        "speedup": round(speedup, 2),
        "packed_speedup": round(packed_speedup, 2),
        "compiled_pool_speedup": (
            round(compiled_pool_speedup, 2) if compiled_pool_speedup else None
        ),
        "compiled_speedup": (
            round(compiled_speedup, 2) if compiled_speedup else None
        ),
        "compiled_loop_engaged": (
            sims["compiled-loop"].fused_path == "c-loop"
            if "compiled-loop" in sims
            else None
        ),
        "memory_ticks": args.memory_ticks,
        "peak_bytes_columnar": peak_columnar,
        "peak_bytes_legacy": peak_legacy,
        "memory_ratio": round(memory_ratio, 2),
        "required_speedup": REQUIRED_SPEEDUP,
        "required_packed_speedup": REQUIRED_PACKED_SPEEDUP,
        "required_compiled_speedup": REQUIRED_COMPILED_SPEEDUP,
        "required_memory_ratio": REQUIRED_MEMORY_RATIO,
    }
    print(
        f"dense full-fidelity run ({args.ticks:,} ticks, "
        f"{results['messages_delivered']:,} messages), throughput vs the "
        f"legacy recorder at {throughput['legacy']:,.0f} ticks/s:"
    )
    print(
        f"  columnar {throughput['columnar']:,.0f} ticks/s ({speedup:.2f}x), "
        f"packed {throughput['packed']:,.0f} ticks/s ({packed_speedup:.2f}x)"
        + (
            f", compiled {throughput['compiled']:,.0f} ticks/s "
            f"({compiled_pool_speedup:.2f}x)"
            if compiled_pool_speedup
            else "  [compiled kernel not built]"
        )
        + (
            f", compiled-loop {throughput['compiled-loop']:,.0f} ticks/s "
            f"({compiled_speedup:.2f}x, "
            + (
                "C loop engaged"
                if results["compiled_loop_engaged"]
                else "DEGRADED to Python loop"
            )
            + ")"
            if compiled_speedup
            else ""
        )
    )
    print(
        f"peak recording memory ({args.memory_ticks:,} ticks): "
        f"columnar {peak_columnar / 1e6:.1f} MB vs legacy "
        f"{peak_legacy / 1e6:.1f} MB ({memory_ratio:.2f}x lower)"
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}")

    failed = False
    if speedup < REQUIRED_SPEEDUP:
        print(
            f"FAIL: columnar speedup {speedup:.2f}x below the "
            f"{REQUIRED_SPEEDUP}x floor"
        )
        failed = True
    if packed_speedup < REQUIRED_PACKED_SPEEDUP:
        print(
            f"FAIL: packed-kernel speedup {packed_speedup:.2f}x below the "
            f"{REQUIRED_PACKED_SPEEDUP}x floor"
        )
        failed = True
    if (
        compiled_speedup is not None
        and compiled_speedup < REQUIRED_COMPILED_SPEEDUP
    ):
        print(
            f"FAIL: compiled-loop speedup {compiled_speedup:.2f}x below "
            f"the {REQUIRED_COMPILED_SPEEDUP}x floor"
        )
        failed = True
    if memory_ratio < REQUIRED_MEMORY_RATIO:
        print(
            f"FAIL: peak-memory ratio {memory_ratio:.2f}x below the "
            f"{REQUIRED_MEMORY_RATIO}x floor"
        )
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
