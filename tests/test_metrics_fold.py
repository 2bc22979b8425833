"""``record="metrics"`` folded by the C tick loop, against the Python recorder.

On ``kernel="compiled-loop"`` the C loop folds each executed step into the
leading ``MetricsRecorder``'s ``RunMetrics`` itself and adds the counts in
when it returns or fails; every other path calls
``MetricsRecorder.on_step_raw`` per step. The ``RunMetrics`` must come out
equal on both — between run calls, after a raise (a raising step is not
counted, a step whose later observer raises is), with further step
observers attached, and when the recorder's own ``on_step_raw`` also runs
mid-loop for idle steps another observer asks to see.
"""

from __future__ import annotations

import copy

import pytest

from repro.sim import (
    HAS_COMPILED_LOOP,
    FixedDelay,
    Process,
    SimObserver,
    Simulation,
    SimulationFailed,
)
from repro.workload import WorkloadSpec, workload_sim

pytestmark = pytest.mark.skipif(not HAS_COMPILED_LOOP, reason="C loop not built")

KERNELS = ("compiled-loop", "packed")
SPEC = WorkloadSpec(clients=3, ops_per_client=25, mean_gap=24, seed=7)


class Boom(Exception):
    pass


@pytest.mark.parametrize("stack", ["etob", "ec", "paxos"])
def test_workload_stacks_fold_the_same_metrics(stack):
    metrics, summaries = [], []
    for kernel in KERNELS:
        sim, observer, horizon = workload_sim(
            SPEC, stack=stack, env="uniform", retry_after=300, kernel=kernel
        )
        assert [type(o).__name__ for o in sim._step_observers] == [
            "MetricsRecorder", "LatencyObserver",
        ]
        between = []
        for end in (horizon // 3, horizon // 2, horizon):
            sim.run_until(end)
            between.append(copy.deepcopy(sim.metrics))
        assert sim.fused_path == ("c-loop" if kernel == "compiled-loop" else "python")
        metrics.append(between)
        summaries.append(observer.summary())
    assert metrics[0] == metrics[1]
    assert metrics[0][-1].steps > 0 and metrics[0][-1].outputs > 0
    assert summaries[0] == summaries[1] and summaries[0].completed > 0


class Tripwire(Process):
    """Beats to its peers on every timeout, outputs what it hears, and
    raises from its ``trip``-th timeout (never when ``trip`` is None)."""

    def __init__(self, trip=None):
        self.trip = trip
        self.timeouts = 0

    def on_input(self, ctx, value):
        ctx.output(("in", value))

    def on_message(self, ctx, sender, payload):
        if payload[1] % 2:
            ctx.output(("heard", sender, payload[1]))

    def on_timeout(self, ctx):
        self.timeouts += 1
        if self.timeouts == self.trip:
            ctx.send_all(("lost", self.timeouts))  # buffered, never sent
            raise Boom(f"timeout {self.timeouts}")
        ctx.send_all(("beat", self.timeouts), include_self=False)


class TripObserver(SimObserver):
    """A step observer that raises on its ``trip``-th executed step."""

    def __init__(self, trip=None):
        self.trip = trip
        self.steps = 0

    def on_step_raw(self, sim, *fields):
        self.steps += 1
        if self.steps == self.trip:
            raise Boom(f"step {self.steps}")


class IdleSteps(SimObserver):
    """Takes every step, idle ones too: every idle tick is materialized."""

    wants_idle_steps = True

    def on_step_raw(self, sim, *fields):
        pass


def tripwire_sim(kernel, *, trip=None, observer_trip=None, probe=False,
                 scheduling="round_robin"):
    observers = [TripObserver(observer_trip)]
    if probe:
        observers.append(IdleSteps())
    sim = Simulation(
        [Tripwire(trip if pid == 1 else None) for pid in range(3)],
        delay_model=FixedDelay(3),
        timeout_interval=[5, 7, 11],
        record="metrics",
        kernel=kernel,
        scheduling=scheduling,
        seed=3,
        observers=observers,
    )
    for k in range(4):
        sim.add_input(k % 3, 6 * k, k)
    return sim


def _folded(kernel, **options):
    sim = tripwire_sim(kernel, **options)
    if kernel == "compiled-loop":
        assert sim.fused_path == "c-loop"
    else:  # no Python fused loop serves random scheduling
        random = options.get("scheduling") == "random"
        assert sim.fused_path == (None if random else "python")
    failed = None
    try:
        sim.run_until(300)
    except Boom as error:
        failed = str(error)
        with pytest.raises(SimulationFailed):
            sim.run_until(400)
    return sim.metrics, failed


@pytest.mark.parametrize(
    "options",
    [
        dict(trip=9),
        dict(observer_trip=40),
        dict(),
        dict(probe=True),
        dict(trip=9, probe=True),
        dict(scheduling="random"),
        dict(trip=9, scheduling="random"),
    ],
    ids=["handler-raises", "observer-raises", "clean", "idle-steps",
         "idle-steps-handler-raises", "random", "random-handler-raises"],
)
def test_tripwire_runs_fold_the_same_metrics(options):
    (folded, folded_failure), (recorded, recorded_failure) = (
        _folded(kernel, **options) for kernel in KERNELS
    )
    assert folded == recorded
    assert folded_failure == recorded_failure
    assert folded.steps > 0 and folded.inputs > 0 and folded.outputs > 0
    if "trip" in options or "observer_trip" in options:
        assert folded_failure is not None
    if options.get("probe"):
        assert folded.idle_ticks_skipped == 0  # every idle tick is a step


def test_a_raising_step_is_not_counted_and_one_whose_observer_raises_is():
    handler, __ = _folded("compiled-loop", trip=9)
    observer, __ = _folded("compiled-loop", observer_trip=40)
    assert observer.steps == 40
    clean = tripwire_sim("compiled-loop")
    while clean.processes[1].timeouts < 9:  # up to the raising step, cleanly
        clean.run_until(clean.time + 1)
    assert handler.steps == clean.metrics.steps - 1
