"""Differential tests: the event engine is observationally identical to the
naive tick-at-a-time stepper, and recording fidelities only change what is
retained, never the trajectory.

The core property (the engine's fast-forward invariant): for any scenario —
random crash schedules, delay models, timeout intervals, scheduling policies,
message batching — running with ``engine="event"`` and ``record="full"``
produces a byte-identical :class:`RunRecord` to ``engine="naive"``, including
idle-step records, detector samples, the diagnostic log, and the scheduling
RNG stream.
"""

from __future__ import annotations

import random

import pytest

from repro.core import EtobLayer
from repro.detectors import OmegaDetector
from repro.scenario import Scenario
from repro.sim import (
    HAS_COMPILED,
    FailurePattern,
    FixedDelay,
    GstDelay,
    ProtocolStack,
    ReplayPlan,
    RunMetrics,
    SimObserver,
    Simulation,
    UniformRandomDelay,
    build_simulation,
)

#: seeds for the randomized differential sweep (acceptance: >= 20 scenarios).
DIFFERENTIAL_SEEDS = list(range(24))


def random_config(seed: int) -> dict:
    """Draw one random scenario configuration, deterministically per seed."""
    rng = random.Random(1_000_003 * seed + 17)
    n = rng.randint(2, 6)
    horizon = rng.randint(300, 1200)
    crashes = {
        pid: rng.randrange(horizon)
        for pid in rng.sample(range(n), rng.randint(0, n - 1))
    }
    delay_kind = rng.choice(["fixed", "uniform", "gst"])
    if delay_kind == "fixed":
        ticks = rng.randint(1, 5)
        delay_model = lambda: FixedDelay(ticks)  # noqa: E731
    elif delay_kind == "uniform":
        lo = rng.randint(1, 4)
        hi = lo + rng.randint(0, 30)
        delay_model = lambda: UniformRandomDelay(lo, hi, seed=seed)  # noqa: E731
    else:
        gst = rng.randint(10, horizon)
        delay_model = lambda: GstDelay(  # noqa: E731
            gst=gst, pre_max=30, post_delay=3, seed=seed
        )
    if rng.random() < 0.3:
        timeout = [rng.randint(1, 40) for _ in range(n)]
    else:
        timeout = rng.randint(1, 40)
    return {
        "n": n,
        "horizon": horizon,
        "crashes": crashes,
        "delay_model": delay_model,
        "timeout": timeout,
        "scheduling": rng.choice(["round_robin", "random"]),
        "message_batch": rng.choice([1, 1, 4]),
        "tau": rng.choice([0, rng.randrange(max(1, horizon // 2))]),
        "broadcasts": [
            (rng.randrange(n), rng.randrange(horizon), f"m{i}")
            for i in range(rng.randint(0, 6))
        ],
        "split": rng.random() < 0.4,
    }


def config_plan(config: dict) -> ReplayPlan:
    """The declarative half of a random config, as the shared replay plan."""
    timeout = config["timeout"]
    return ReplayPlan(
        n=config["n"],
        duration=config["horizon"],
        crashes=tuple(sorted(config["crashes"].items())),
        inputs=tuple(
            (pid, t, ("broadcast", payload))
            for pid, t, payload in config["broadcasts"]
        ),
        seed=13,
        timeout_interval=tuple(timeout) if isinstance(timeout, list) else timeout,
        scheduling=config["scheduling"],
        message_batch=config["message_batch"],
    )


def build_sim(
    config: dict, *, engine: str, record: str = "full", observers=(), **sim_kwargs
) -> Simulation:
    plan = config_plan(config)
    detector = OmegaDetector(stabilization_time=config["tau"]).history(
        plan.failure_pattern(), seed=7
    )
    return build_simulation(
        plan,
        [ProtocolStack([EtobLayer()]) for _ in range(plan.n)],
        detector=detector,
        delay_model=config["delay_model"](),
        observers=observers,
        engine=engine,
        record=record,
        **sim_kwargs,
    )


def run_sim(sim: Simulation, config: dict) -> Simulation:
    if config["split"]:
        # Resuming a run mid-way must not perturb the engine's bookkeeping.
        sim.run_until(config["horizon"] // 2)
        sim.run_until(config["horizon"])
    else:
        sim.run_until(config["horizon"])
    return sim


class TestEngineDifferential:
    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_event_engine_matches_naive_stepper(self, seed):
        config = random_config(seed)
        naive = run_sim(build_sim(config, engine="naive"), config)
        event = run_sim(build_sim(config, engine="event"), config)
        assert naive.run == event.run, f"run records diverged for config {config}"
        assert naive.time == event.time
        assert naive.network.sent_count == event.network.sent_count
        assert naive.network.delivered_count == event.network.delivered_count
        assert naive._next_timeout == event._next_timeout
        assert naive.rng.getstate() == event.rng.getstate()

    def test_quiescence_equivalent_across_engines(self):
        def build(engine):
            sim = Scenario(3, seed=2).omega().etob().timeout_interval(500) \
                .engine(engine).broadcast(0, 5, "x").build()
            sim.run_until(40)
            sim.run_until_quiescent(max_time=600)
            return sim

        naive, event = build("naive"), build("event")
        assert naive.run == event.run
        assert naive.time == event.time
        assert naive.network.live_pending == 0

    def test_quiescence_ignores_dead_letters(self):
        # A message addressed to a crashed process must not keep the loop
        # spinning to max_time: the crash boundary discounts it.
        pattern = FailurePattern.crash(2, {1: 10})
        sim = Simulation(
            [ProtocolStack([EtobLayer()]) for _ in range(2)],
            failure_pattern=pattern,
            detector=OmegaDetector(stabilization_time=0).history(pattern, seed=0),
            timeout_interval=1000,
        )
        sim.network.send(0, 1, "dead letter", 12)
        sim.run_until(20)
        sim.run_until_quiescent(max_time=50_000)
        assert sim.time < 1000
        assert sim.network.live_pending == 0
        assert sim.network.in_transit(1) == 1  # the letter itself lingers


class TestRandomBlockwiseFastForward:
    """The blockwise random-scheduler skip (the default at reduced fidelity)
    is byte-identical to the naive stepper over randomized scenarios, in
    both its implementations: the pure-Python block path and, where the
    extension is built, the C tick loop."""

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_blockwise_matches_naive_at_outputs_fidelity(self, seed):
        config = random_config(seed)
        config["scheduling"] = "random"
        naive = run_sim(build_sim(config, engine="naive", record="outputs"), config)
        block = run_sim(build_sim(config, engine="event", record="outputs"), config)
        assert naive.run == block.run, f"run records diverged for config {config}"
        assert naive.time == block.time
        assert naive.network.sent_count == block.network.sent_count
        assert naive.network.delivered_count == block.network.delivered_count
        assert naive._next_timeout == block._next_timeout

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_block_path_c_loop_and_naive_agree_at_metrics_fidelity(self, seed):
        config = random_config(seed)
        config["scheduling"] = "random"

        def run(**kwargs):
            return run_sim(build_sim(config, record="metrics", **kwargs), config)

        naive = run(engine="naive", kernel="packed")
        block = run(engine="event", kernel="packed")
        default = run(engine="event")  # the C loop where it is built
        assert block.fused_path is None
        assert default.fused_path == ("c-loop" if HAS_COMPILED else None)
        assert default.metrics == block.metrics  # all but which loop ran
        # the naive stepper executes the idle ticks the event engine skips,
        # so its step split differs; everything else is the same run
        split = ("steps", "steps_by_pid", "idle_ticks_skipped",
                 "fused_path", "fused_reason")
        want = {k: v for k, v in naive.metrics.as_dict().items() if k not in split}
        for sim in (block, default):
            got = sim.metrics.as_dict()
            assert {k: v for k, v in got.items() if k not in split} == want
            assert (
                sim.metrics.steps + sim.metrics.idle_ticks_skipped
                == naive.metrics.steps
            )
            assert sim.last_live_tick == naive.last_live_tick
            assert sim.time == naive.time
            assert sim.network.sent_count == naive.network.sent_count

    def test_full_fidelity_random_runs_use_the_scan(self):
        # Materializing observers need every idle-step record, so the
        # blockwise path must not engage; byte-equality with the naive
        # stepper (already pinned above) is only achievable per tick.
        config = random_config(3)
        config["scheduling"] = "random"
        sim = build_sim(config, engine="event", record="full")
        run_sim(sim, config)
        naive = run_sim(build_sim(config, engine="naive", record="full"), config)
        assert sim.run.steps  # idle records materialized
        assert sim.run == naive.run

    def test_all_processes_crashing_mid_span(self):
        # The last-live-tick walk must clamp below the final crash boundary
        # instead of scanning the whole dead tail.
        from repro.sim import Process

        class Chatter(Process):
            def on_timeout(self, ctx):
                ctx.send((ctx.pid + 1) % ctx.n, ("tick", ctx.time))

        # Every process crashes early (no detector: Omega would require a
        # correct process), leaving a long all-dead tail to fast-forward.
        pattern = FailurePattern.crash(3, {0: 11, 1: 12, 2: 13})

        def build(engine):
            sim = Simulation(
                [Chatter() for _ in range(3)],
                failure_pattern=pattern,
                timeout_interval=7,
                scheduling="random",
                seed=5,
                engine=engine,
                record="outputs",
            )
            sim.run_until(4000)
            return sim

        naive, event = build("naive"), build("event")
        assert naive.run == event.run
        assert naive.run.end_time == event.run.end_time
        assert event.time == 4000


def _is_event_step(steps, index) -> bool:
    """True iff the full-fidelity step at ``index`` did any work."""
    step = steps[index]
    if step.message is not None or step.inputs or step.timeout_fired:
        return True
    # First step of its process: on_start ran.
    return not any(s.pid == step.pid for s in steps[:index])


class TestRecordingFidelity:
    def scenario(self, record, observers=()):
        n = 4
        pattern = FailurePattern.crash(n, {3: 700})
        detector = OmegaDetector(stabilization_time=100).history(pattern, seed=3)
        sim = Simulation(
            [ProtocolStack([EtobLayer()]) for _ in range(n)],
            failure_pattern=pattern,
            detector=detector,
            delay_model=FixedDelay(3),
            timeout_interval=24,
            seed=3,
            record=record,
            observers=observers,
        )
        sim.add_input(0, 40, ("broadcast", "a"))
        sim.add_input(1, 300, ("broadcast", "b"))
        sim.run_until(1500)
        return sim

    def test_outputs_level_keeps_histories_drops_steps(self):
        full = self.scenario("full")
        outputs = self.scenario("outputs")
        assert outputs.run.steps == []
        assert outputs.run.input_history == full.run.input_history
        assert outputs.run.output_history == full.run.output_history
        assert outputs.run.log == full.run.log
        assert outputs.run.end_time == full.run.end_time

    def test_metrics_level_counts_without_retaining(self):
        full = self.scenario("full")
        metrics_sim = self.scenario("metrics")
        metrics = metrics_sim.metrics
        assert metrics_sim.run.steps == []
        assert metrics_sim.run.output_history == {}
        # The trajectory is identical, so network traffic agrees exactly.
        assert metrics_sim.network.sent_count == full.network.sent_count
        assert metrics_sim.network.delivered_count == full.network.delivered_count
        # Counters match the full record, restricted to non-idle steps.
        full_steps = full.run.steps
        expected_steps = sum(
            1 for i in range(len(full_steps)) if _is_event_step(full_steps, i)
        )
        assert metrics.steps == expected_steps
        assert metrics.messages_received == sum(
            s.received_count for s in full_steps
        )
        assert metrics.messages_sent == sum(s.sent for s in full_steps)
        assert metrics.timeouts_fired == sum(
            1 for s in full_steps if s.timeout_fired
        )
        assert metrics.inputs == 2
        assert metrics.outputs == sum(len(s.outputs) for s in full_steps)
        assert metrics.idle_ticks_skipped > 0
        # t=1499 belongs to the crashed p3, so the last live tick is 1498 —
        # the same end_time the full-fidelity record reports.
        assert metrics.end_time == full.run.end_time == 1498

    def test_none_level_records_nothing(self):
        sim = self.scenario("none")
        assert sim.run.steps == []
        assert sim.run.output_history == {}
        assert sim.run.log == []
        assert sim.metrics.steps == 0
        # The simulation itself still ran.
        assert sim.network.sent_count > 0

    def test_unknown_level_rejected(self):
        from repro.sim.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            self.scenario("everything")

    def test_fidelity_levels_share_one_trajectory(self):
        sims = {level: self.scenario(level) for level in ("full", "outputs", "metrics", "none")}
        sent = {level: sim.network.sent_count for level, sim in sims.items()}
        assert len(set(sent.values())) == 1, sent


class CountingObserver(SimObserver):
    def __init__(self):
        self.steps = 0
        self.sends = 0
        self.delivers = 0
        self.logs = 0
        self.finishes = 0

    def on_step(self, sim, record):
        self.steps += 1

    def on_send(self, sim, envelope):
        self.sends += 1

    def on_deliver(self, sim, envelope):
        self.delivers += 1

    def on_log(self, sim, t, pid, event):
        self.logs += 1

    def on_finish(self, sim):
        self.finishes += 1


class TestObserverHooks:
    def test_hooks_see_all_traffic_even_unrecorded(self):
        observer = CountingObserver()
        sim = Scenario(3, seed=1).omega().etob().record("none") \
            .observe(observer).broadcast(0, 10, "x").run(400)
        assert observer.sends == sim.network.sent_count > 0
        assert observer.delivers == sim.network.delivered_count > 0
        assert observer.steps > 0
        assert observer.finishes == 1

    def test_observer_wanting_idle_steps_forces_materialization(self):
        class IdleHungry(CountingObserver):
            wants_idle_steps = True

        lazy, hungry = CountingObserver(), IdleHungry()
        sim_a = Scenario(3, seed=1).omega().etob().record("none") \
            .observe(lazy).timeout_interval(64).run(2000)
        sim_b = Scenario(3, seed=1).omega().etob().record("none") \
            .observe(hungry).timeout_interval(64).run(2000)
        assert hungry.steps == 2000  # crash-free: every tick yields a record
        assert lazy.steps < hungry.steps
        assert sim_a.network.sent_count == sim_b.network.sent_count

    def test_non_observer_rejected(self):
        from repro.sim.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Simulation([ProtocolStack([EtobLayer()])], observers=[object()])


class TestTimelineObserver:
    def test_live_timeline_matches_post_hoc_rendering(self):
        from repro.sim.tracing import TimelineObserver, timeline

        observer = TimelineObserver()
        sim = (
            Scenario(3, seed=5)
            .crash(2, at=400)
            .omega(tau=100)
            .etob()
            .observe(observer)
            .broadcast(0, 20, "hello")
            .broadcast(1, 90, "world")
            .run(900)
        )
        live = observer.render(failure_pattern=sim.failure_pattern)
        post = timeline(sim.run)
        assert live == post
        assert "cast" in live

    def test_live_timeline_available_at_metrics_fidelity(self):
        from repro.sim.tracing import TimelineObserver

        observer = TimelineObserver()
        sim = (
            Scenario(3, seed=5)
            .omega()
            .etob()
            .record("metrics")
            .observe(observer)
            .broadcast(0, 20, "hello")
            .run(600)
        )
        assert sim.run.steps == []
        assert observer.events  # the trace survived the reduced fidelity


class TestRunMetricsHelper:
    def test_full_and_metrics_paths_agree(self):
        from repro.analysis.metrics import run_metrics

        def build(record):
            return Scenario(4, seed=9).omega(tau=50).etob() \
                .record(record).broadcast(0, 30, "m").run(800)

        derived = run_metrics(build("full"))
        live = run_metrics(build("metrics"))
        assert derived.messages_sent == live.messages_sent
        assert derived.messages_received == live.messages_received
        assert derived.timeouts_fired == live.timeouts_fired
        assert derived.inputs == live.inputs
        assert derived.outputs == live.outputs
        # Full fidelity additionally counts materialized idle steps.
        assert derived.steps == live.steps + live.idle_ticks_skipped

    def test_metrics_as_dict_roundtrip(self):
        metrics = RunMetrics(3)
        metrics.steps = 7
        assert metrics.as_dict()["steps"] == 7


class TestFidelityConsistencyEdges:
    """Regression tests: edge consistency across recording fidelities."""

    def crashed_tail_sim(self, record):
        # p1 crashes at t=0; with n=2 every odd tick is a crashed tick, so
        # the run's tail exercises the crashed-trailing-tick bookkeeping.
        pattern = FailurePattern.crash(2, {1: 0})
        sim = Simulation(
            [ProtocolStack([EtobLayer()]) for _ in range(2)],
            failure_pattern=pattern,
            detector=OmegaDetector(stabilization_time=0).history(pattern, seed=0),
            timeout_interval=100,
            record=record,
        )
        sim.run_until(10)
        return sim

    def test_end_time_stable_across_fidelities_with_crashed_tail(self):
        ends = {
            level: self.crashed_tail_sim(level)
            for level in ("full", "outputs", "metrics")
        }
        full_end = ends["full"].run.end_time
        assert full_end == 8  # t=9 belongs to the crashed process
        assert ends["outputs"].run.end_time == full_end
        assert ends["metrics"].metrics.end_time == full_end

    def test_idle_skip_counter_excludes_crashed_ticks(self):
        sim = self.crashed_tail_sim("metrics")
        # Live ticks are 0,2,4,6,8; t=0 executed (on_start), the rest idle.
        assert sim.metrics.steps == 1
        assert sim.metrics.idle_ticks_skipped == 4

    def test_idle_skip_counter_excludes_crashed_ticks_random(self):
        pattern = FailurePattern.crash(2, {1: 0})
        sim = Simulation(
            [ProtocolStack([EtobLayer()]) for _ in range(2)],
            failure_pattern=pattern,
            detector=OmegaDetector(stabilization_time=0).history(pattern, seed=0),
            timeout_interval=1000,
            scheduling="random",
            record="metrics",
        )
        sim.run_until(50)
        # Exactly half the ticks belong to the crashed process per block.
        assert sim.metrics.steps + sim.metrics.idle_ticks_skipped == 25

    def test_run_metrics_rejects_unsupported_fidelity(self):
        from repro.analysis.metrics import run_metrics

        sim = self.crashed_tail_sim("outputs")
        with pytest.raises(ValueError, match="record='full' or record='metrics'"):
            run_metrics(sim)

    def test_timeline_observer_crash_annotation_at_reduced_fidelity(self):
        from repro.sim.tracing import TimelineObserver, timeline

        def build(record, observer=None):
            observers = [observer] if observer is not None else []
            pattern = FailurePattern.crash(2, {1: 6})
            sim = Simulation(
                [ProtocolStack([EtobLayer()]) for _ in range(2)],
                failure_pattern=pattern,
                detector=OmegaDetector(stabilization_time=0).history(
                    pattern, seed=0
                ),
                timeout_interval=100,
                record=record,
                observers=observers,
            )
            sim.run_until(10)
            return sim

        observer = TimelineObserver()
        sim = build("none", observer)
        live = observer.render(failure_pattern=sim.failure_pattern)
        assert "CRASH" in live
        assert live == timeline(build("full").run)
