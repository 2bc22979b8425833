"""Unit tests for the step scheduler: fairness, crashes, inputs, timers."""

import pytest

from repro.sim import FailurePattern, FixedDelay, Process, Simulation
from repro.sim.errors import ConfigurationError


class Recorder(Process):
    """Records every event it sees; echoes messages if asked."""

    def __init__(self, echo_to=None):
        self.started_at = None
        self.messages = []
        self.inputs = []
        self.timeouts = []
        self.fd_values = []
        self.echo_to = echo_to

    def on_start(self, ctx):
        self.started_at = ctx.time

    def on_message(self, ctx, sender, payload):
        self.messages.append((ctx.time, sender, payload))
        if self.echo_to is not None:
            ctx.send(self.echo_to, ("echo", payload))

    def on_input(self, ctx, value):
        self.inputs.append((ctx.time, value))
        ctx.send_all(("from-input", value), include_self=False)

    def on_timeout(self, ctx):
        self.timeouts.append(ctx.time)
        self.fd_values.append(ctx.fd_value)


class TestStepping:
    def test_round_robin_each_process_steps_every_n_ticks(self):
        procs = [Recorder() for _ in range(3)]
        sim = Simulation(procs, timeout_interval=1)
        sim.run_until(30)
        for pid in range(3):
            times = [s.time for s in sim.run.steps_of(pid)]
            assert times == list(range(pid, 30, 3))

    def test_random_scheduling_is_fair_per_block(self):
        procs = [Recorder() for _ in range(4)]
        sim = Simulation(procs, scheduling="random", seed=3, timeout_interval=1)
        sim.run_until(40)
        counts = [sim.run.step_count(pid) for pid in range(4)]
        assert counts == [10, 10, 10, 10]

    def test_crashed_process_takes_no_steps(self):
        pattern = FailurePattern.crash(3, {1: 9})
        procs = [Recorder() for _ in range(3)]
        sim = Simulation(procs, failure_pattern=pattern, timeout_interval=1)
        sim.run_until(60)
        times = [s.time for s in sim.run.steps_of(1)]
        assert times and max(times) < 9
        assert sim.run.step_count(0) == 20

    def test_block_permutations_are_derivable_out_of_order(self):
        # Counter-based permutations: deriving block 7 cold must equal
        # deriving blocks 0..7 in naive visit order — the property the
        # blockwise fast-forward relies on.
        def fresh():
            return Simulation(
                [Recorder() for _ in range(4)],
                scheduling="random",
                seed=9,
                timeout_interval=1,
            )

        cold = list(fresh()._permutation_for_block(7))
        warm_sim = fresh()
        for block in range(7):
            warm_sim._permutation_for_block(block)
        assert list(warm_sim._permutation_for_block(7)) == cold
        assert sorted(cold) == list(range(4))

    def test_block_permutations_vary_across_blocks_and_seeds(self):
        sim = Simulation(
            [Recorder() for _ in range(6)],
            scheduling="random",
            seed=2,
            timeout_interval=1,
        )
        perms = [tuple(sim._permutation_for_block(b)) for b in range(50)]
        assert len(set(perms)) > 1
        other = Simulation(
            [Recorder() for _ in range(6)],
            scheduling="random",
            seed=3,
            timeout_interval=1,
        )
        assert [tuple(other._permutation_for_block(b)) for b in range(50)] != perms

    def test_determinism_same_seed_same_run(self):
        def build():
            procs = [Recorder(echo_to=0) for _ in range(3)]
            sim = Simulation(procs, seed=11, scheduling="random", timeout_interval=2)
            sim.add_input(0, 3, "x")
            sim.run_until(50)
            return [(s.time, s.pid, s.sent) for s in sim.run.steps]

        assert build() == build()


class TestInputs:
    def test_input_delivered_at_first_step_after_time(self):
        procs = [Recorder() for _ in range(3)]
        sim = Simulation(procs, timeout_interval=100)
        sim.add_input(1, 5, "hello")
        sim.run_until(20)
        # p1 steps at t = 1, 4, 7, ...; first step >= 5 is t=7.
        assert procs[1].inputs == [(7, "hello")]

    def test_inputs_preserve_order(self):
        procs = [Recorder() for _ in range(2)]
        sim = Simulation(procs, timeout_interval=100)
        sim.add_input(0, 0, "a")
        sim.add_input(0, 0, "b")
        sim.run_until(4)
        assert [v for _, v in procs[0].inputs] == ["a", "b"]

    def test_input_history_recorded(self):
        procs = [Recorder() for _ in range(2)]
        sim = Simulation(procs, timeout_interval=100)
        sim.add_input(0, 1, "z")
        sim.run_until(10)
        assert sim.run.inputs_of(0) == [(2, "z")]

    def test_input_to_invalid_pid_rejected(self):
        sim = Simulation([Recorder()], timeout_interval=5)
        with pytest.raises(ValueError):
            sim.add_input(3, 0, "x")


class TestMessaging:
    def test_message_delivery_and_reception(self):
        procs = [Recorder(), Recorder()]
        sim = Simulation(procs, delay_model=FixedDelay(1), timeout_interval=100)
        sim.add_input(0, 0, "ping")  # p0 sends to all others on input
        sim.run_until(10)
        assert procs[1].messages and procs[1].messages[0][2] == ("from-input", "ping")

    def test_one_message_consumed_per_step(self):
        procs = [Recorder(), Recorder()]
        sim = Simulation(procs, delay_model=FixedDelay(1), timeout_interval=100)
        for i in range(3):
            sim.network.send_packed(0, 1, f"m{i}", 0)
        sim.run_until(20)
        receive_times = [t for t, __, ___ in procs[1].messages]
        assert len(receive_times) == 3
        assert len(set(receive_times)) == 3  # spread across distinct steps

    def test_messages_to_crashed_process_linger(self):
        pattern = FailurePattern.crash(2, {1: 0})
        procs = [Recorder(), Recorder()]
        sim = Simulation(procs, failure_pattern=pattern, timeout_interval=100)
        sim.network.send_packed(0, 1, "dead letter", 0)
        sim.run_until(30)
        assert procs[1].messages == []
        assert sim.network.in_transit(1) == 1


class TestTimers:
    def test_timeouts_fire_at_interval(self):
        procs = [Recorder() for _ in range(2)]
        sim = Simulation(procs, timeout_interval=6)
        sim.run_until(40)
        timeouts = procs[0].timeouts
        assert timeouts, "timer never fired"
        gaps = [b - a for a, b in zip(timeouts, timeouts[1:])]
        assert all(6 <= g <= 8 for g in gaps)

    def test_per_process_intervals(self):
        procs = [Recorder(), Recorder()]
        sim = Simulation(procs, timeout_interval=[4, 20])
        sim.run_until(60)
        assert len(procs[0].timeouts) > len(procs[1].timeouts)

    def test_fd_value_visible_in_steps(self):
        class ConstantDetector:
            def query(self, pid, t):
                return ("leader", 0)

        procs = [Recorder()]
        sim = Simulation(procs, detector=ConstantDetector(), timeout_interval=2)
        sim.run_until(10)
        assert all(v == ("leader", 0) for v in procs[0].fd_values)
        assert all(s.fd_value == ("leader", 0) for s in sim.run.steps)


class TestConfiguration:
    def test_empty_process_list_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulation([])

    def test_mismatched_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulation([Recorder()], failure_pattern=FailurePattern.no_failures(3))

    def test_bad_scheduling_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulation([Recorder()], scheduling="lifo")

    def test_bad_timeout_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulation([Recorder()], timeout_interval=0)
        with pytest.raises(ConfigurationError):
            Simulation([Recorder(), Recorder()], timeout_interval=[1])


class TestRunLoops:
    def test_run_until_quiescent_drains_network(self):
        procs = [Recorder(), Recorder()]
        sim = Simulation(procs, delay_model=FixedDelay(1), timeout_interval=1000)
        sim.network.send_packed(0, 1, "m", 0)
        sim.run_until_quiescent()
        assert sim.network.in_transit() == 0
