"""Property-based tests for the scheduler: fairness, determinism, delivery."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FailurePattern, FixedDelay, Process, Simulation


class Echo(Process):
    """Sends one message per timeout; counts receptions."""

    def __init__(self):
        self.received = 0

    def on_timeout(self, ctx):
        ctx.send((ctx.pid + 1) % ctx.n, ("tick", ctx.time))

    def on_message(self, ctx, sender, payload):
        self.received += 1


class TestSchedulerProperties:
    @settings(max_examples=30)
    @given(
        st.integers(min_value=2, max_value=6),
        st.sampled_from(["round_robin", "random"]),
        st.integers(min_value=0, max_value=999),
    )
    def test_fairness_every_correct_process_steps(self, n, scheduling, seed):
        procs = [Echo() for _ in range(n)]
        sim = Simulation(
            procs, scheduling=scheduling, seed=seed, timeout_interval=3
        )
        sim.run_until(n * 20)
        for pid in range(n):
            assert sim.run.step_count(pid) == 20

    @settings(max_examples=30)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=999),
        st.integers(min_value=1, max_value=6),
    )
    def test_determinism_across_reruns(self, n, seed, delay):
        def fresh_run():
            procs = [Echo() for _ in range(n)]
            sim = Simulation(
                procs,
                scheduling="random",
                seed=seed,
                delay_model=FixedDelay(delay),
                timeout_interval=3,
            )
            sim.run_until(120)
            return (
                [(s.time, s.pid, s.sent, s.received_count) for s in sim.run.steps],
                [p.received for p in procs],
            )

        assert fresh_run() == fresh_run()

    @settings(max_examples=20)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=8),
    )
    def test_no_stale_messages_linger(self, n, delay):
        # The Echo ring chats forever, so the network never drains fully —
        # but nothing *old* may remain: every message becomes deliverable
        # after `delay` ticks and is consumed within a bounded backlog
        # window (inflow and drain rates match in the ring topology).
        procs = [Echo() for _ in range(n)]
        sim = Simulation(procs, delay_model=FixedDelay(delay), timeout_interval=4)
        sim.run_until(300)
        earliest = sim.network.earliest_pending(range(n))
        slack = delay + 4 * n
        assert earliest is None or earliest >= sim.time - slack

    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=999))
    def test_crashed_process_never_steps_after_crash(self, seed):
        pattern = FailurePattern.crash(3, {1: 40})
        procs = [Echo() for _ in range(3)]
        sim = Simulation(
            procs,
            failure_pattern=pattern,
            scheduling="random",
            seed=seed,
            timeout_interval=3,
        )
        sim.run_until(200)
        assert all(s.time < 40 for s in sim.run.steps_of(1))
