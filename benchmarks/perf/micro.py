"""Micro-timings: time per call into public functions of single layers.

Independent of the workload, so every traced run takes them. Each number is
the fastest of five batches, net of the empty loop.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis.cache import ResultStore, compute_code_version
from repro.analysis.metrics import LatencyHistogram
from repro.detectors import OmegaDetector
from repro.sim import FailurePattern, FixedDelay, make_env, make_network
from repro.sim.envs import link_unit
from repro.sim.types import stable_hash
from repro.suite import ScenarioSuite
from repro.workload import WorkloadSpec, arrival_gap, op_command

from benchmarks.perf.timing import fastest_per_call

NS = 1e9


def noop_cell(*, index: int) -> int:
    """The empty suite cell (module level, so worker processes can import it)."""
    return index


def _profile_ns(env: str, seed: int, calls: int) -> float:
    model = make_env(env, seed=seed).delay
    receivers = list(range(16))
    per_call = fastest_per_call(
        lambda i: model.delay_profile(i % 16, i, receivers), calls
    )
    return per_call / len(receivers) * NS


def _send_pop_ns(calls: int) -> float:
    batch = 64
    net = make_network(4, FixedDelay(1), kernel="packed")

    def round_trip(i: int) -> None:
        for __ in range(batch):
            net.send_packed(0, 1, None, i)
        net.pop_deliverable_batch_raw(1, i + 1, batch)

    return fastest_per_call(round_trip, max(calls // batch, 1)) / batch * NS


def _cell_roundtrip_ms(cells: int) -> float:
    best = float("inf")
    for __ in range(3):
        suite = ScenarioSuite(noop_cell, name="perf-noop")
        suite.axis("index", range(cells))
        started = time.perf_counter()
        result = suite.run(workers=2)
        best = min(best, time.perf_counter() - started)
        if not result.ok or result.values() != list(range(cells)):
            raise RuntimeError("no-op suite cells did not round-trip")
    return best / cells * 1e3


def _cache_us(scratch: Path, calls: int) -> tuple[float, float]:
    store = ResultStore(scratch / "micro-store")
    record = {"value": list(range(32)), "wall_time": 0.0}
    digests = [f"{i:064x}" for i in range(calls)]
    put = fastest_per_call(lambda i: store.put(digests[i], record), calls, batches=3)
    hit = fastest_per_call(lambda i: store.get(digests[i]), calls, batches=3)
    if store.get(digests[0]) != record:
        raise RuntimeError("result store did not return what was put")
    return put * 1e6, hit * 1e6


def micro_timings(seed: int, scratch: Path, *, quick: bool) -> dict[str, float]:
    calls = 2_000 if quick else 20_000
    spec = WorkloadSpec(clients=8, ops_per_client=calls, mean_gap=1, keys=64, seed=seed)
    histogram = LatencyHistogram()
    omega = OmegaDetector(stabilization_time=calls // 2).history(
        FailurePattern.no_failures(4), seed=seed
    )
    put_us, hit_us = _cache_us(scratch, 50 if quick else 300)
    started = time.perf_counter()
    compute_code_version()
    code_version_ms = (time.perf_counter() - started) * 1e3
    return {
        "sim.types.stable_hash_ns": NS * fastest_per_call(
            lambda i: stable_hash("workload-gap", seed, 3, i, 7), calls
        ),
        "sim.envs.link_unit_ns": NS * fastest_per_call(
            lambda i: link_unit("perf-micro", seed, 1, 2, i), calls
        ),
        "sim.envs.uniform_profile_ns": _profile_ns("uniform", seed, calls // 16),
        "sim.envs.heavy_tail_profile_ns": _profile_ns("heavy-tail", seed, calls // 16),
        "sim.envs.flaky_profile_ns": _profile_ns("flaky", seed, calls // 16),
        "workload.population.arrival_gap_ns": NS * fastest_per_call(
            lambda i: arrival_gap(spec, 3, i), calls
        ),
        "workload.population.op_command_ns": NS * fastest_per_call(
            lambda i: op_command(spec, 3, i), calls
        ),
        "analysis.metrics.histogram_add_ns": NS * fastest_per_call(
            lambda i: histogram.add(i & 1023), calls
        ),
        "detectors.omega_query_ns": NS * fastest_per_call(
            lambda i: omega.query(i & 3, i), calls
        ),
        "sim.kernel.send_pop_ns": _send_pop_ns(calls),
        "suite.cell_roundtrip_ms": _cell_roundtrip_ms(20 if quick else 200),
        "analysis.cache.put_us": put_us,
        "analysis.cache.hit_us": hit_us,
        "analysis.cache.code_version_ms": code_version_ms,
    }
