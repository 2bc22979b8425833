"""The names this benchmark promises: workloads, metrics, units, directions.

``BENCHMARK.json`` at the repository root carries the same names (plus the
regression bounds, which live only there); ``test_perf_harness.py`` asserts
the two agree. Every run of a workload emits *every* metric of the selected
block — a per-layer metric whose layer the workload never enters reads 0.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: workload name -> (unit of work, why the workload exists).
WORKLOADS: dict[str, tuple[str, str]] = {
    "dense_gossip": (
        "ticks",
        "saturated 4-process gossip at record=full: kernel loop and columnar "
        "recording dominate, zero RNG draws, trivial handlers",
    ),
    "kv_direct": (
        "ops",
        "open-loop 8 ops/tick on coordination-free KV servers: counter-based "
        "draws (stable_hash) and the client population dominate",
    ),
    "kv_ladder": (
        "ops",
        "the same clients at 125 ops/kilotick on etob, ec and paxos under "
        "uniform delays: protocol handlers dominate, the kernel is minor",
    ),
    "sparse_adversary": (
        "ticks",
        "16 ETOB processes, random scheduling, flaky links, a crash: idle-span "
        "fast-forward and block permutations, the fused loop never runs",
    ),
    "report_campaign": (
        "cells",
        "the 66-cell report campaign on 2 workers with a cold result cache: "
        "suite, cache, pickling and the EXP-7 CHT extraction critical path",
    ),
}

#: name -> (unit, better).
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "cpu_us_per_unit": ("us", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

#: the serving stacks, as the per-layer metric prefixes name them.
STACK_LAYERS = {
    "direct": "direct",
    "etob": "core.etob",
    "ec": "core.ec",
    "paxos": "consensus.paxos",
}

#: kernel rungs and experiments the ladder/campaign metrics are keyed by. A
#: rung or experiment later removed from ``repro`` keeps its name here and
#: reads 0.
KERNEL_RUNGS = ("legacy", "packed", "compiled", "compiled-loop")
EXPERIMENTS = (
    "EXP-1", "EXP-2", "EXP-3", "EXP-4", "EXP-5", "EXP-6", "EXP-7", "EXP-8",
    "EXP-9", "EXP-10a", "EXP-10b", "EXP-10c", "EXP-11",
)


def _per_layer() -> dict[str, tuple[str, str]]:
    lower, higher = "lower", "higher"
    metrics: dict[str, tuple[str, str]] = {
        # spans: wall time inside each layer, timed from outside
        "trace_overhead_ratio": ("ratio", lower),
        "sim.run_until_s": ("s", lower),
        "sim.engine_self_s": ("s", lower),
        "sim.engine_self_share": ("share", lower),
        "sim.handlers_s": ("s", lower),
        "workload.population.client_s": ("s", lower),
        "workload.population.client_calls": ("count", lower),
        "workload.scenario.server_s": ("s", lower),
        "core.etob.replica_s": ("s", lower),
        "core.etob.replica_calls": ("count", lower),
        "core.ec.replica_s": ("s", lower),
        "core.ec.replica_calls": ("count", lower),
        "consensus.paxos.replica_s": ("s", lower),
        "consensus.paxos.replica_calls": ("count", lower),
        "sim.envs.delay_s": ("s", lower),
        "sim.envs.delay_calls": ("count", lower),
        "workload.observer.fold_s": ("s", lower),
        "sim.runs.recording_s": ("s", lower),
        # counts: exact, read from public counters
        "sim.steps": ("count", lower),
        "sim.idle_ticks_skipped": ("count", higher),
        "sim.timeouts_fired": ("count", lower),
        "sim.steps_per_tick": ("steps/tick", lower),
        "sim.cloop_engaged": ("count", higher),
        "replication.client.retries_per_op": ("retries/op", lower),
        "consensus.paxos.max_rate_per_kilotick": ("ops/kilotick", higher),
        # simulated-time service quality of the kv workloads, pooled
        "workload.sim_p50_ticks": ("ticks", lower),
        "workload.sim_p99_ticks": ("ticks", lower),
        "workload.sim_ops_per_kilotick": ("ops/kilotick", higher),
        "workload.msgs_per_op": ("msgs/op", lower),
        # micro-timings of public functions
        "sim.types.stable_hash_ns": ("ns", lower),
        "sim.envs.link_unit_ns": ("ns", lower),
        "sim.envs.uniform_profile_ns": ("ns", lower),
        "sim.envs.heavy_tail_profile_ns": ("ns", lower),
        "sim.envs.flaky_profile_ns": ("ns", lower),
        "workload.population.arrival_gap_ns": ("ns", lower),
        "workload.population.op_command_ns": ("ns", lower),
        "analysis.metrics.histogram_add_ns": ("ns", lower),
        "detectors.omega_query_ns": ("ns", lower),
        "sim.kernel.send_pop_ns": ("ns", lower),
        "suite.cell_roundtrip_ms": ("ms", lower),
        "analysis.cache.put_us": ("us", lower),
        "analysis.cache.hit_us": ("us", lower),
        "analysis.cache.code_version_ms": ("ms", lower),
        "analysis.cache.warm_pass_ms": ("ms", lower),
        # campaign
        "campaign.critical_path_s": ("s", lower),
        "campaign.worker_utilization": ("share", higher),
    }
    for layer in STACK_LAYERS.values():
        metrics[f"{layer}.msgs_per_op"] = ("msgs/op", lower)
        metrics[f"{layer}.sim_p50_ticks"] = ("ticks", lower)
        metrics[f"{layer}.sim_p99_ticks"] = ("ticks", lower)
    for rung in KERNEL_RUNGS:
        metrics[f"sim.kernel.{rung}.ticks_per_s"] = ("1/s", higher)
        metrics[f"sim.kernel.{rung}.ops_per_s"] = ("1/s", higher)
    for key in EXPERIMENTS:
        metrics[f"campaign.cell_s.{key}"] = ("s", lower)
        metrics[f"campaign.cost_hint_ratio.{key}"] = ("ratio", lower)
    return metrics


PER_LAYER: dict[str, tuple[str, str]] = _per_layer()


def load_benchmark_json() -> dict:
    """The root ``BENCHMARK.json`` (run length and regression bounds)."""
    return json.loads(BENCHMARK_JSON.read_text())


def render_benchmark_json(bounds: dict[str, float], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these declarations imply."""
    return {
        "command": ["python3", "benchmarks/perf/__main__.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": why} for name, (__, why) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bounds[name]}
            for name, (unit, better) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
