"""Tests for the run-tracing helpers."""

import pytest

from repro.core.messages import AppMessage, MessageId
from repro.scenario import Scenario
from repro.sim import HAS_COMPILED, KERNELS
from repro.sim.failures import FailurePattern
from repro.sim.runs import RunRecord
from repro.sim.tracing import (
    TimelineObserver,
    decision_table,
    sequence_comparison,
    timeline,
)

#: the kernel rungs this interpreter can run
BUILT_KERNELS = [k for k in KERNELS if k != "compiled-loop" or HAS_COMPILED]


def make_run():
    a = AppMessage(MessageId(0, 0), "a")
    b = AppMessage(MessageId(1, 0), "b")
    run = RunRecord(2, FailurePattern.crash(2, {1: 30}))
    run.output_history[0] = [
        (1, ("broadcast-uid", a.uid, "a")),
        (5, ("deliver", (a,))),
        (9, ("deliver", (a, b))),
        (11, ("decide", 1, "v")),
    ]
    run.output_history[1] = [
        (2, ("broadcast-uid", b.uid, "b")),
        (7, ("deliver", (b, a))),
        (12, ("decide", 1, "w")),
    ]
    run.end_time = 40
    return run


class TestTimeline:
    def test_contains_events_in_time_order(self):
        import re

        text = timeline(make_run())
        lines = text.splitlines()
        times = [int(re.search(r"t=\s*(\d+)", line).group(1)) for line in lines]
        assert times == sorted(times)
        assert any("cast" in line for line in lines)
        assert any("|d|=2" in line for line in lines)

    def test_crash_annotated(self):
        text = timeline(make_run())
        assert "CRASH" in text
        assert "t=30  p1" in text

    def test_window_and_pid_filters(self):
        text = timeline(make_run(), pids=[0], start=4, end=10)
        assert "p1" not in text
        assert "cast" not in text  # broadcast was at t=1
        assert "|d|=1" in text

    def test_decide_rendering(self):
        text = timeline(make_run())
        assert "[1]='v'" in text


class TestSequenceComparison:
    def test_flags_divergence_position(self):
        text = sequence_comparison(make_run(), at=8)
        # p0 has (a,), p1 has (b, a): disagreement from position 0.
        assert "common prefix: 0" in text
        assert "!a" in text and "!b" in text

    def test_no_flags_when_identical(self):
        run = make_run()
        run.output_history[1][1] = (7, ("deliver", run.output_history[0][1][1][1]))
        text = sequence_comparison(run, at=8)
        assert "!" not in text.split(":", 2)[2]


class TestDecisionTable:
    def test_grid_contains_all_decisions(self):
        text = decision_table(make_run())
        assert "instance: 1" in text
        assert "'v'" in text and "'w'" in text

    def test_missing_decisions_render_as_dot(self):
        run = make_run()
        run.output_history[1] = []
        text = decision_table(run)
        assert "'.'" in text


class TestTimelineObserverOnEveryLoop:
    """``TimelineObserver`` overrides ``on_step`` alone: every loop — the
    C tick loop included — reaches it through the base ``on_step_raw``,
    which builds each record from the raw step fields."""

    @pytest.mark.parametrize("record", ["full", "metrics"])
    @pytest.mark.parametrize("random", [False, True], ids=["rr", "random"])
    def test_the_live_timeline_is_the_same_on_every_rung(self, random, record):
        renders = {}
        for kernel in BUILT_KERNELS:
            observer = TimelineObserver()
            scenario = (
                Scenario(4, seed=3)
                .crash(3, at=500)
                .omega(tau=100)
                .etob()
                .kernel(kernel)
                .record(record)
                .observe(observer)
                .broadcast(0, 20, "a")
                .broadcast(1, 90, "b")
            )
            if random:
                scenario = scenario.random_scheduling()
            sim = scenario.run(1_000)
            if kernel == "compiled-loop":
                # only a random run that keeps idle steps leaves the C loop
                on_c = not (random and record == "full")
                assert (sim.fused_path == "c-loop") == on_c
            renders[kernel] = observer.render(failure_pattern=sim.failure_pattern)
        assert "cast" in renders["legacy"] and "CRASH" in renders["legacy"]
        assert set(renders.values()) == {renders["legacy"]}
