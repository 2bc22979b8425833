"""The five workloads: inputs, timed legs, correctness checks, traced runs.

Each workload builds its inputs from the seed alone, times fresh
simulations for the requested number of seconds, and checks what the
program produced. With tracing on it additionally rebuilds the same
simulation behind the timing proxies of :mod:`benchmarks.perf.probes` and
attributes the time to ``repro``'s modules. README.md records why each
workload exists and which layer it isolates.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Any, Callable

from repro.analysis.cache import ResultCache
from repro.analysis.experiments import ALL_EXPERIMENTS, Campaign, sweep_rows
from repro.analysis.metrics import LatencyHistogram
from repro.core import EtobLayer
from repro.detectors import OmegaDetector
from repro.properties import check_etob
from repro.sim import (
    KERNELS,
    FailurePattern,
    FixedDelay,
    Process,
    ProtocolStack,
    Simulation,
    make_env,
)
from repro.workload import WorkloadSpec, latency_from_run, workload_sim

from benchmarks.perf import spec
from benchmarks.perf.micro import micro_timings
from benchmarks.perf.model import Built, Check, Context, Outcome
from benchmarks.perf.timing import Leg, LegTimes, composite, measure, repeat
from benchmarks.perf.tracing import REPLICAS, Trace, counts

#: the campaign's worker count: fixed, never taken from the machine.
CAMPAIGN_WORKERS = 2
#: sim p99 limit of the Paxos rate ladder, in ticks.
PAXOS_P99_LIMIT = 400


def _sim_leg(name: str, build: Callable[[], Built], units: int) -> Leg:
    return Leg(name, build, Built.run, units)


def _repeat_failures(legs: dict[str, LegTimes]) -> int:
    """Repeats whose fingerprint differs from their leg's first."""
    return sum(
        fingerprint != times.fingerprints[0]
        for times in legs.values()
        for fingerprint in times.fingerprints
    )


def _prefix_check(name: str, build: Callable[..., Built], **oracle: Any) -> Check:
    """The default path against ``oracle`` (kernel/engine overrides) on a
    short prefix: same digest, same traffic."""
    got, want = build().run(), build(**oracle).run()
    return Check(name, got == want, f"{got} vs {want}")


def _kernel_ladder(
    ctx: Context,
    outcome: Outcome,
    build: Callable[..., Built],
    units: int,
    metric: str,
) -> None:
    """Time ``build(kernel=rung)`` for every rung of ``KERNELS`` into
    ``sim.kernel.<rung>.<metric>`` (units per second)."""
    for kernel in KERNELS:
        leg = _sim_leg(kernel, lambda kernel=kernel: build(kernel=kernel), units)
        times = outcome.extra_legs[f"kernel:{kernel}"] = repeat(leg, ctx.min_repeats)
        outcome.layers[f"sim.kernel.{kernel}.{metric}"] = units / composite(times.wall)


# -- the two tick workloads --------------------------------------------------


class _TickWorkload:
    """Shared shape of the workloads whose unit of work is a simulated tick:
    one leg, attempts are repeats, a repeat fails when its digest differs."""

    name: str
    full_ticks: int
    #: the layer the traced run books ``ProtocolStack`` handlers under.
    replica_layer = "core.etob"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.ticks = ctx.size(self.full_ticks)

    def build(self, ticks: int | None = None, **overrides: Any) -> Built:
        raise NotImplementedError

    def schedule(self, sim: Simulation) -> None:
        """Application inputs of a full-length run (none by default)."""

    def checks(self, reference: tuple) -> list[Check]:
        raise NotImplementedError

    def trace_extras(self, outcome: Outcome, reference: tuple) -> None:
        """Workload-specific per-layer metrics."""

    def warm_up(self) -> None:
        self.build(self.ticks // 10).run()

    def measure(self) -> Outcome:
        ctx = self.ctx
        leg = _sim_leg("default", self.build, self.ticks)
        legs = ctx.measure([leg])
        reference = legs["default"].fingerprints[0]
        outcome = Outcome(
            self.name, self.ticks, legs,
            attempted=len(legs["default"].wall),
            failed=_repeat_failures(legs),
            checks=self.checks(reference),
        )
        if ctx.trace:
            trace = Trace(ctx)
            trace.add_leg(
                leg, legs["default"], self.replica_layer, ctx.budget,
                schedule=self.schedule,
            )
            trace.into(outcome)
            self.trace_extras(outcome, reference)
        return outcome


class Gossip(Process):
    """Saturating traffic source: broadcast to the peers on every timeout."""

    def on_timeout(self, ctx) -> None:
        ctx.send_all(("beat", ctx.time), include_self=False)

    def on_message(self, ctx, sender, payload) -> None:
        pass


class DenseGossip(_TickWorkload):
    name = "dense_gossip"
    full_ticks = 300_000

    def build(self, ticks: int | None = None, **overrides: Any) -> Built:
        options = {"record": "full", **overrides}
        sim = Simulation(
            [Gossip() for __ in range(4)],
            delay_model=FixedDelay(2),
            timeout_interval=32,
            seed=self.ctx.input_seed,
            **options,
        )
        return Built(sim, ticks or self.ticks)

    def checks(self, reference: tuple) -> list[Check]:
        prefix = self.ctx.size(20_000)
        checks = [
            _prefix_check(
                "digest equals kernel=legacy, engine=naive on a prefix",
                lambda **oracle: self.build(prefix, **oracle),
                kernel="legacy", engine="naive",
            )
        ]
        if "compiled-loop" in KERNELS:
            cloop = self.build(kernel="compiled-loop")
            checks.append(Check(
                "kernel=compiled-loop engages the C loop", self._cloop_engaged(cloop),
                f"fused_path={cloop.sim.fused_path!r}",
            ))
            checks.append(Check(
                "digest equal across kernels", cloop.run() == reference
            ))
        return checks

    @staticmethod
    def _cloop_engaged(built: Built) -> bool:
        return built.sim.fused_path == "c-loop"

    def trace_extras(self, outcome: Outcome, reference: tuple) -> None:
        """Recording cost, exact counters and the kernel ladder."""
        unrecorded = outcome.extra_legs["record:none"] = repeat(
            _sim_leg("record:none", lambda: self.build(record="none"), self.ticks),
            self.ctx.min_repeats,
        )
        outcome.layers["sim.runs.recording_s"] = (
            composite(outcome.legs["default"].wall) - composite(unrecorded.wall)
        )
        counted = self.build(record="metrics")
        counted.run()
        outcome.layers.update(counts([counted]))
        outcome.layers["sim.cloop_engaged"] = int(
            "compiled-loop" in KERNELS
            and self._cloop_engaged(self.build(kernel="compiled-loop"))
        )
        _kernel_ladder(self.ctx, outcome, self.build, self.ticks, "ticks_per_s")
        for kernel in KERNELS:
            outcome.checks.append(Check(
                f"kernel={kernel} digest equals the default kernel's",
                all(
                    fingerprint == reference
                    for fingerprint in outcome.extra_legs[f"kernel:{kernel}"].fingerprints
                ),
            ))


class SparseAdversary(_TickWorkload):
    name = "sparse_adversary"
    full_ticks = 1_000_000
    n = 16

    def schedule(self, sim: Simulation, ticks: int | None = None) -> None:
        """40 sparse broadcasts straddling Omega's stabilization time."""
        ticks = ticks or self.ticks
        step = max(ticks // 1000, 1)
        first = ticks // 8 - 20 * step
        for i in range(40):
            sim.add_input(i % (self.n - 1), first + i * step, ("broadcast", f"m{i}"))

    def build(self, ticks: int | None = None, **overrides: Any) -> Built:
        ticks = ticks or self.ticks
        seed = self.ctx.input_seed
        pattern = FailurePattern(self.n, {self.n - 1: 3 * ticks // 4})
        detector = OmegaDetector(stabilization_time=ticks // 8).history(
            pattern, seed=seed
        )
        options = {"record": "metrics", **overrides}
        sim = Simulation(
            [ProtocolStack([EtobLayer()]) for __ in range(self.n)],
            failure_pattern=pattern,
            detector=detector,
            delay_model=make_env("flaky", seed=seed).delay,
            seed=seed,
            timeout_interval=256,
            scheduling="random",
            **options,
        )
        self.schedule(sim, ticks)
        return Built(sim, ticks)

    def checks(self, reference: tuple) -> list[Check]:
        outputs = self.build(record="outputs")
        outputs.run()
        report = check_etob(outputs.sim.run)
        prefix = self.ctx.size(50_000)
        return [
            Check("check_etob holds on the outputs-fidelity run", report.ok,
                  "; ".join(report.violations)),
            _prefix_check(
                "digest equals engine=naive on a prefix",
                lambda **oracle: self.build(prefix, record="outputs", **oracle),
                engine="naive",
            ),
        ]


# -- the two client workloads ------------------------------------------------


class _KvWorkload:
    """Shared shape of the two client workloads: one leg per serving stack,
    one pass = every stack once; attempts are operations submitted."""

    name: str
    stacks: tuple[str, ...]
    #: ``WorkloadSpec`` fields at full size, and ``workload_sim`` options.
    population: dict[str, Any]
    sim_options: dict[str, Any]

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def spec(self, **overrides: Any) -> WorkloadSpec:
        options = {**self.population, "seed": self.ctx.input_seed}
        options["ops_per_client"] = self.ctx.size(options["ops_per_client"])
        return WorkloadSpec(**{**options, **overrides})

    def build(self, stack: str, spec_: WorkloadSpec | None = None, **overrides: Any) -> Built:
        sim, observer, horizon = workload_sim(
            spec_ or self.spec(), stack=stack, **{**self.sim_options, **overrides}
        )
        return Built(sim, horizon, observer)

    def warm_up(self) -> None:
        small = self.spec(ops_per_client=max(self.spec().ops_per_client // 10, 1))
        for stack in self.stacks:
            self.build(stack, small).run()

    def _pinned_check(self) -> Check:
        """A small cell at ``record="full"``: the streaming observer must
        equal the post-hoc recomputation from the retained run."""
        small = self.spec(clients=4, ops_per_client=25)
        built = self.build(self.stacks[0], small, record="full")
        live, __, __ = built.run()
        posthoc = latency_from_run(
            built.sim.run, range(REPLICAS, REPLICAS + small.clients)
        )
        return Check(
            "pinned cell: streaming summary equals latency_from_run",
            live == posthoc and live.served,
        )

    def _service_quality(self, legs: dict[str, LegTimes]) -> dict[str, float]:
        """Simulated-time facts, exact for a seed: per stack and pooled."""
        pooled = LatencyHistogram()
        served = sent = retries = 0
        throughput = 0.0
        facts: dict[str, float] = {}
        for stack in self.stacks:
            summary, stack_sent, histogram = legs[stack].fingerprints[0]
            pooled.merge(histogram)
            served += summary.completed
            sent += stack_sent
            retries += summary.retries
            throughput += summary.throughput
            layer = spec.STACK_LAYERS[stack]
            facts[f"{layer}.msgs_per_op"] = stack_sent / summary.completed
            facts[f"{layer}.sim_p50_ticks"] = summary.p50
            facts[f"{layer}.sim_p99_ticks"] = summary.p99
        facts["workload.sim_p50_ticks"] = pooled.percentile(50)
        facts["workload.sim_p99_ticks"] = pooled.percentile(99)
        facts["workload.sim_ops_per_kilotick"] = throughput / len(self.stacks)
        facts["workload.msgs_per_op"] = sent / served
        facts["replication.client.retries_per_op"] = retries / served
        return facts

    def measure(self) -> Outcome:
        ctx = self.ctx
        total = self.spec().total_ops
        leg_list = [
            _sim_leg(stack, lambda stack=stack: self.build(stack), total)
            for stack in self.stacks
        ]
        legs = ctx.measure(leg_list)
        summaries = [
            fingerprint[0] for times in legs.values() for fingerprint in times.fingerprints
        ]
        outcome = Outcome(
            self.name, total * len(self.stacks), legs,
            attempted=sum(s.submitted for s in summaries),
            failed=sum(s.submitted - s.completed for s in summaries),
            checks=[
                Check(
                    "summaries identical across repeats",
                    _repeat_failures(legs) == 0,
                ),
                self._pinned_check(),
            ],
        )
        if ctx.trace:
            trace = Trace(ctx)
            for leg in leg_list:
                trace.add_leg(
                    leg, legs[leg.name], spec.STACK_LAYERS[leg.name],
                    ctx.budget / len(leg_list),
                )
            trace.into(outcome)
            outcome.layers.update(self._service_quality(legs))
            self.trace_extras(outcome)
        return outcome

    def trace_extras(self, outcome: Outcome) -> None:
        """Workload-specific per-layer metrics."""


class KvDirect(_KvWorkload):
    name = "kv_direct"
    stacks = ("direct",)
    population = {"clients": 8, "ops_per_client": 6250, "mean_gap": 1, "keys": 64}
    sim_options = {"record": "metrics", "message_batch": 64}

    def trace_extras(self, outcome: Outcome) -> None:
        """The kernel ladder. Cost per op is O(1), so a fifth of the ops
        gives the same rate."""
        small = self.spec(ops_per_client=max(self.spec().ops_per_client // 5, 1))
        _kernel_ladder(
            self.ctx, outcome,
            lambda **kernel: self.build("direct", small, **kernel),
            small.total_ops, "ops_per_s",
        )


class KvLadder(_KvWorkload):
    name = "kv_ladder"
    stacks = ("etob", "ec", "paxos")
    population = {"clients": 4, "ops_per_client": 150, "mean_gap": 32}
    sim_options = {
        "env": "uniform", "retry_after": 300, "replicas": REPLICAS,
        "record": "metrics",
    }

    def trace_extras(self, outcome: Outcome) -> None:
        """The highest offered rate Paxos serves fully within the p99 limit."""
        best = 0
        for gap in (48, 32, 24, 16):
            offered = self.spec(mean_gap=gap)
            summary, __, __ = self.build("paxos", offered).run()
            if summary.served and summary.p99 <= PAXOS_P99_LIMIT:
                best = max(best, round(1000 * offered.clients / gap))
        outcome.layers["consensus.paxos.max_rate_per_kilotick"] = best


# -- report_campaign ---------------------------------------------------------


def _campaign_rows(result) -> dict[str, list[dict]]:
    return {key: sweep_rows(result.experiment(key)) for key in result.by_experiment}


class ReportCampaign:
    name = "report_campaign"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.campaign = self._campaign()
        self.cells = len(self.campaign.cells())

    def _campaign(self) -> Campaign:
        """What ``generate_report`` runs: every experiment x 3 seeds, every
        declared ``env`` axis extended. ``--quick`` takes one seed and leaves
        out EXP-7, whose single cell alone runs for ~8 s."""
        quick = self.ctx.quick
        keys = [key for key in ALL_EXPERIMENTS if not (quick and key == "EXP-7")]
        campaign = Campaign(
            keys, seeds=1 if quick else 3,
            base_seed=self.ctx.seed, name="perf-report",
        )
        for key in keys:
            if any(axis.name == "env" for axis in campaign.definition(key).axes):
                campaign.extend(key, "env")
        return campaign

    def warm_up(self) -> None:
        """Nothing to warm: the cold campaign is the measurement."""

    def _run(self, cache_dir: Path):
        return self.campaign.run(
            workers=CAMPAIGN_WORKERS, cache=ResultCache(cache_dir)
        )

    def measure(self) -> Outcome:
        ctx = self.ctx
        cold_runs: list[tuple[Path, Any]] = []

        def cold_dir() -> Path:
            return ctx.scratch / f"cache-{len(cold_runs)}"

        def run_cold(cache_dir: Path, lap: Callable[[], None]) -> dict:
            cold_runs.append((cache_dir, self._run(cache_dir)))
            return _campaign_rows(cold_runs[-1][1])

        # A cold pass runs longer than any budget and cannot be cut into
        # segments (cells finish in no fixed order), so it is simply made
        # twice and the faster one counts.
        legs = measure(
            [Leg("cold", cold_dir, run_cold, self.cells)],
            ctx.budget, min_repeats=1 if ctx.quick else 2,
            max_repeats=ctx.max_repeats,
        )
        cache_dir, cold = cold_runs[-1]
        cold_rows = legs["cold"].fingerprints[-1]
        warm_s: list[float] = []
        warm_ok = True
        for __ in range(2 if ctx.quick else 5):
            started = time.perf_counter()
            warm = self._run(cache_dir)
            warm_s.append(time.perf_counter() - started)
            warm_ok = (
                warm_ok
                and all(cell.cached == "hit" for cell in warm.suite.cells)
                and _campaign_rows(warm) == cold_rows
            )
        for used, __ in cold_runs:
            shutil.rmtree(used, ignore_errors=True)
        outcome = Outcome(
            self.name, self.cells, legs,
            attempted=self.cells * len(cold_runs),
            failed=sum(len(result.failures()) for __, result in cold_runs),
            checks=[
                Check("cold rows identical across repeats", _repeat_failures(legs) == 0),
                Check("warm passes execute zero cells and reproduce the cold rows", warm_ok),
            ],
        )
        if ctx.trace:
            outcome.layers.update(self._cell_costs(cold, legs["cold"].wall[-1][0]))
            outcome.layers["analysis.cache.warm_pass_ms"] = min(warm_s) * 1e3
            outcome.layers["trace_overhead_ratio"] = 1.0  # no proxy is injected
        return outcome

    def _cell_costs(self, cold, wall: float) -> dict[str, float]:
        """Measured cell time per experiment against its cost hint."""
        cell_s = {key: cold.experiment(key).wall_time for key in cold.by_experiment}
        hinted = {
            key: self.campaign.definition(key).cost * len(cold.experiment(key).cells)
            for key in cell_s
        }
        total_s, total_hint = sum(cell_s.values()), sum(hinted.values())
        layers: dict[str, float] = {}
        for key, seconds in cell_s.items():
            layers[f"campaign.cell_s.{key}"] = seconds
            layers[f"campaign.cost_hint_ratio.{key}"] = (
                (seconds / total_s) / (hinted[key] / total_hint)
            )
        layers["campaign.critical_path_s"] = max(
            cell.wall_time for cell in cold.suite.cells
        )
        layers["campaign.worker_utilization"] = total_s / (CAMPAIGN_WORKERS * wall)
        return layers


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (DenseGossip, KvDirect, KvLadder, SparseAdversary, ReportCampaign)
}


def set_up(ctx: Context, name: str):
    """Everything before the first timed repeat: build the workload's inputs
    and run its reduced warm-up pass."""
    workload = WORKLOAD_CLASSES[name](ctx)
    workload.warm_up()
    return workload


def measure_workload(ctx: Context, name: str) -> Outcome:
    """Set up and measure one workload; traced runs add the micro-timings."""
    outcome = set_up(ctx, name).measure()
    if ctx.trace:
        outcome.layers.update(
            micro_timings(ctx.input_seed, ctx.scratch, quick=ctx.quick)
        )
    return outcome
