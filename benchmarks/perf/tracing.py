"""Traced runs: a workload leg rebuilt behind the timing proxies, its spans
folded into per-layer metrics."""

from __future__ import annotations

from typing import Callable

from repro.sim import Process, ProtocolStack, Simulation
from repro.workload import KvServerProcess, LatencyObserver, OpenLoopClient

from benchmarks.perf import spec
from benchmarks.perf.model import Built, Check, Context, Outcome
from benchmarks.perf.probes import TimedObserver, traced_twin
from benchmarks.perf.timing import Leg, LegTimes, Span, composite

#: replicas of the kv workloads (``workload_sim``'s default); clients sit above.
REPLICAS = 3
#: spans that are not process handlers.
DELAY_SPAN = "sim.envs.delay"
FOLD_SPAN = "workload.observer.fold"


def counts(finished: list[Built]) -> dict[str, float]:
    """Exact engine counters of finished ``record="metrics"`` runs, summed."""
    steps = sum(built.sim.metrics.steps for built in finished)
    return {
        "sim.steps": steps,
        "sim.idle_ticks_skipped": sum(
            built.sim.metrics.idle_ticks_skipped for built in finished
        ),
        "sim.timeouts_fired": sum(
            built.sim.metrics.timeouts_fired for built in finished
        ),
        "sim.steps_per_tick": steps / sum(built.horizon for built in finished),
    }


def _span_name(process: Process, replica_layer: str) -> str:
    if isinstance(process, OpenLoopClient):
        return "workload.population.client"
    if isinstance(process, KvServerProcess):
        return "workload.scenario.server"
    if isinstance(process, ProtocolStack):
        return f"{replica_layer}.replica"
    return "perf.gossip"


def _traced_build(
    leg: Leg,
    replica_layer: str,
    schedule: Callable[[Simulation], None] | None,
) -> Callable[[], Built]:
    """``leg.build`` with the simulation rebuilt behind the timing proxies."""

    def build() -> Built:
        donor: Built = leg.build()
        spans: dict[str, Span] = {}

        def span(name: str) -> Span:
            return spans.setdefault(name, Span())

        observer, observers = None, []
        if donor.observer is not None:
            observer = LatencyObserver(range(REPLICAS, donor.sim.n))
            observers.append(TimedObserver(observer, span(FOLD_SPAN)))
        twin = traced_twin(
            donor.sim,
            lambda process: span(_span_name(process, replica_layer)),
            span(DELAY_SPAN),
            observers,
        )
        if schedule is not None:
            schedule(twin)
        return Built(twin, donor.horizon, observer, spans)

    return build


class Trace:
    """Span totals of one workload, accumulated leg by leg.

    ``sim.run_until_s`` is the *untraced* time; the spans come from the
    traced twin. The engine's self time is their difference, which keeps
    the proxies' own call overhead (it lands outside the spans) out of it.
    """

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.run_until_s = 0.0
        self.traced_s = 0.0
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.checks: list[Check] = []
        #: one finished traced simulation per leg (the counters are exact).
        self.finished: list[Built] = []

    def add_leg(
        self,
        leg: Leg,
        untraced: LegTimes,
        replica_layer: str,
        seconds: float,
        schedule: Callable[[Simulation], None] | None = None,
    ) -> None:
        """Time ``leg`` behind the proxies for ``seconds`` and fold in its
        spans; its outcome must equal the untraced one."""
        kept: list[tuple[Built, list[dict[str, tuple[float, int]]]]] = []

        def run(built: Built, lap: Callable[[], None]) -> tuple:
            snapshots: list[dict[str, tuple[float, int]]] = []

            def traced_lap() -> None:
                lap()
                snapshots.append({
                    name: (span.seconds, span.calls)
                    for name, span in built.spans.items()
                })

            kept.append((built, snapshots))
            return built.run(traced_lap)

        build = _traced_build(leg, replica_layer, schedule)
        traced = self.ctx.measure(
            [Leg(leg.name, build, run, leg.units)], seconds
        )[leg.name]
        self.checks.append(Check(
            f"{leg.name}: traced outcome equals the untraced one",
            all(f == untraced.fingerprints[0] for f in traced.fingerprints),
        ))
        self.run_until_s += composite(untraced.wall)
        self.traced_s += composite(traced.wall)
        self.finished.append(kept[0][0])
        # The spans of the composite run: each segment's from the repeat
        # that ran that segment fastest.
        for k, column in enumerate(zip(*traced.wall, strict=True)):
            snapshots = kept[column.index(min(column))][1]
            before = snapshots[k - 1] if k else {}
            for name, (seconds, calls) in snapshots[k].items():
                seconds_before, calls_before = before.get(name, (0.0, 0))
                self.seconds[name] = (
                    self.seconds.get(name, 0.0) + seconds - seconds_before
                )
                self.calls[name] = self.calls.get(name, 0) + calls - calls_before

    def into(self, outcome: Outcome) -> None:
        """Write the span metrics, span rows, checks and (where the run kept
        counters) the exact engine counts into ``outcome``."""
        spans = sum(self.seconds.values())
        engine_self = self.run_until_s - spans
        layers = {
            "trace_overhead_ratio": self.traced_s / self.run_until_s,
            "sim.run_until_s": self.run_until_s,
            "sim.engine_self_s": engine_self,
            "sim.engine_self_share": engine_self / self.run_until_s,
            "sim.handlers_s": spans
            - self.seconds.get(DELAY_SPAN, 0.0)
            - self.seconds.get(FOLD_SPAN, 0.0),
        }
        for name, seconds in self.seconds.items():
            if f"{name}_s" in spec.PER_LAYER:
                layers[f"{name}_s"] = seconds
            if f"{name}_calls" in spec.PER_LAYER:
                layers[f"{name}_calls"] = self.calls[name]
        if all(built.sim.record_level == "metrics" for built in self.finished):
            layers.update(counts(self.finished))
        outcome.layers.update(layers)
        outcome.checks.extend(self.checks)
        outcome.spans = [
            {"name": "sim.run_until", "parent": None,
             "seconds": self.run_until_s, "calls": 1},
            {"name": "sim.engine_self", "parent": "sim.run_until",
             "seconds": engine_self, "calls": 1},
        ] + [
            {"name": name, "parent": "sim.run_until",
             "seconds": seconds, "calls": self.calls[name]}
            for name, seconds in sorted(self.seconds.items())
        ]
