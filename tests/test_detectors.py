"""Unit tests for the oracle failure detectors."""

import pytest

from repro.detectors import (
    CompositeDetector,
    EventuallyPerfectDetector,
    EventuallyStrongDetector,
    OmegaDetector,
    PerfectDetector,
    ScriptedHistory,
    SigmaDetector,
    StrongDetector,
    TableHistory,
)
from repro.properties import check_omega_history, check_sigma_history
from repro.sim import Process, Simulation
from repro.sim.failures import FailurePattern

from mutants import OmegaNeverStabilises


class OmegaSampler(Process):
    """Keeps ``(time, pid, Omega output)`` at each of its timeouts."""

    def __init__(self, samples):
        self.samples = samples

    def on_timeout(self, ctx):
        self.samples.append((ctx.time, ctx.pid, ctx.omega()))


class TestOmega:
    def test_stable_leader_after_stabilization(self):
        pattern = FailurePattern.crash(4, {0: 50})
        hist = OmegaDetector(stabilization_time=100).history(pattern)
        for t in range(100, 200):
            for pid in range(4):
                assert hist.query(pid, t) == 1  # min correct

    def test_pre_stabilization_rotate_disagrees(self):
        pattern = FailurePattern.no_failures(4)
        hist = OmegaDetector(stabilization_time=1000, pre_behavior="rotate").history(
            pattern
        )
        outputs = {hist.query(pid, 10) for pid in range(4)}
        assert len(outputs) > 1

    def test_pre_behavior_self(self):
        pattern = FailurePattern.no_failures(3)
        hist = OmegaDetector(stabilization_time=50, pre_behavior="self").history(
            pattern
        )
        assert [hist.query(pid, 0) for pid in range(3)] == [0, 1, 2]

    def test_explicit_leader_must_be_correct(self):
        pattern = FailurePattern.crash(3, {2: 10})
        with pytest.raises(ValueError):
            OmegaDetector(leader=2).history(pattern)

    def test_random_pre_behavior_deterministic_per_seed(self):
        pattern = FailurePattern.no_failures(5)
        h1 = OmegaDetector(stabilization_time=99, pre_behavior="random").history(
            pattern, seed=4
        )
        h2 = OmegaDetector(stabilization_time=99, pre_behavior="random").history(
            pattern, seed=4
        )
        assert [h1.query(2, t) for t in range(50)] == [
            h2.query(2, t) for t in range(50)
        ]

    def test_needs_a_correct_process(self):
        pattern = FailurePattern.crash(2, {0: 0, 1: 0})
        with pytest.raises(ValueError):
            OmegaDetector().history(pattern)

    def test_checker_validates_oracle(self):
        pattern = FailurePattern.crash(5, {4: 30})
        hist = OmegaDetector(stabilization_time=80).history(pattern)
        check = check_omega_history(hist, pattern, horizon=300)
        assert check.ok
        assert check.leader == 0
        assert check.stabilization_time <= 80

    def test_the_cheapest_cell_kills_omega_that_never_stabilises(self):
        # p2 crashes at 10; tau = 20. The real history settles on p0 there,
        # the mutant keeps p0 and p1 a phase apart through the horizon.
        pattern = FailurePattern.crash(3, {2: 10})
        real = OmegaDetector(stabilization_time=20).history(pattern)
        assert check_omega_history(real, pattern, horizon=80).ok
        mutant = OmegaNeverStabilises(pattern, stabilization_time=20)
        check = check_omega_history(mutant, pattern, horizon=80)
        assert not check.ok
        assert check.reason == "never stabilized within horizon"
        # The run queries it at every step: past tau the leaders still move.
        samples = []
        sim = Simulation(
            [OmegaSampler(samples) for __ in range(3)],
            failure_pattern=pattern, detector=mutant, timeout_interval=1,
        )
        sim.run_until(80)
        assert sim._fd_settle[1] is None
        assert {leader for t, __, leader in samples if t >= 20} == {0, 1}

    def test_checker_rejects_non_omega(self):
        pattern = FailurePattern.no_failures(3)
        rotating = ScriptedHistory(lambda pid, t: (t // 3) % 3)
        check = check_omega_history(rotating, pattern, horizon=100)
        assert not check.ok


#: ticks from 0 to 10**6, dense near 0 and spread out further on: added to
#: a settle tick, every sample of the settles() contract lies past it.
SETTLED_OFFSETS = sorted(
    set(range(64)) | {int(1.4**k) for k in range(42)} | {10**6}
)


class TestSettles:
    """``settles()`` is a promise the simulation acts on: from the settle
    tick on it stops querying. So the promised value must be what
    ``query`` returns, at every pid and every later tick."""

    @pytest.mark.parametrize(
        "pre", ["rotate", "self", "random", "stable", lambda pid, t: (pid * t) % 5]
    )
    @pytest.mark.parametrize("tau", [0, 1, 97, 12_345])
    @pytest.mark.parametrize(
        "crashes,leader", [({}, None), ({}, 4), ({0: 50, 3: 7}, None), ({1: 0}, 2)]
    )
    def test_omega_answers_its_settled_value_from_the_settle_tick_on(
        self, pre, tau, crashes, leader
    ):
        pattern = FailurePattern.crash(5, crashes)
        hist = OmegaDetector(
            stabilization_time=tau, leader=leader, pre_behavior=pre, churn_period=3
        ).history(pattern, seed=11)
        settle_at, value = hist.settles()
        assert settle_at == tau
        assert value in pattern.correct
        for offset in SETTLED_OFFSETS:
            t = settle_at + offset
            for pid in range(5):
                assert hist.query(pid, t) is value

    def test_histories_promise_nothing_by_default(self):
        pattern = FailurePattern.crash(3, {2: 10})
        assert ScriptedHistory(lambda pid, t: 0).settles() is None
        assert SigmaDetector().history(pattern).settles() is None
        composite = CompositeDetector({"omega": OmegaDetector()}).history(pattern)
        assert composite.settles() is None


class TestSigma:
    def test_anchor_mode_quorums_always_intersect(self):
        pattern = FailurePattern.crash(5, {0: 1, 1: 1, 2: 1})  # minority correct
        hist = SigmaDetector(stabilization_time=40).history(pattern)
        check = check_sigma_history(hist, pattern, horizon=120, sample_every=3)
        assert check.ok
        assert check.intersection_ok

    def test_anchor_mode_eventually_correct_only(self):
        pattern = FailurePattern.crash(4, {0: 1, 1: 1})
        hist = SigmaDetector(stabilization_time=30).history(pattern)
        for t in range(30, 60):
            for pid in pattern.correct:
                assert hist.query(pid, t) <= pattern.correct

    def test_majority_mode_requires_correct_majority(self):
        minority = FailurePattern.crash(4, {0: 1, 1: 1, 2: 1})
        with pytest.raises(ValueError):
            SigmaDetector(mode="majority").history(minority)

    def test_majority_mode_outputs_majorities(self):
        pattern = FailurePattern.crash(5, {4: 10})
        hist = SigmaDetector(stabilization_time=20, mode="majority").history(pattern)
        for t in range(0, 60, 5):
            for pid in range(5):
                assert len(hist.query(pid, t)) >= 3

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SigmaDetector(mode="gossip").history(FailurePattern.no_failures(3))


class TestPerfect:
    def test_perfect_never_suspects_alive(self):
        pattern = FailurePattern.crash(4, {2: 50})
        hist = PerfectDetector(detection_lag=3).history(pattern)
        for t in range(0, 53):
            assert 2 not in hist.query(0, t)
        assert hist.query(0, 53) == frozenset({2})

    def test_eventually_perfect_converges(self):
        pattern = FailurePattern.crash(4, {1: 10})
        hist = EventuallyPerfectDetector(stabilization_time=60).history(pattern)
        for t in range(60, 100):
            assert hist.query(3, t) == frozenset({1})

    def test_eventually_perfect_makes_early_mistakes(self):
        pattern = FailurePattern.no_failures(4)
        hist = EventuallyPerfectDetector(stabilization_time=500).history(pattern, seed=2)
        mistakes = {hist.query(pid, t) for pid in range(4) for t in range(0, 100, 5)}
        assert any(s for s in mistakes), "expected some false suspicion"


class TestStrong:
    def test_strong_never_suspects_anchor(self):
        pattern = FailurePattern.crash(4, {3: 20})
        hist = StrongDetector().history(pattern, seed=1)
        for t in range(0, 150, 3):
            for pid in range(4):
                assert 0 not in hist.query(pid, t)

    def test_strong_eventually_suspects_faulty(self):
        pattern = FailurePattern.crash(4, {3: 20})
        hist = StrongDetector(detection_lag=2).history(pattern)
        assert 3 in hist.query(0, 100)

    def test_eventually_strong_stops_suspecting_anchor(self):
        pattern = FailurePattern.no_failures(3)
        hist = EventuallyStrongDetector(stabilization_time=40).history(pattern, seed=9)
        for t in range(40, 120, 4):
            for pid in range(3):
                assert 0 not in hist.query(pid, t)


class TestScriptedAndComposite:
    def test_scripted_history(self):
        hist = ScriptedHistory(lambda pid, t: (pid, t))
        assert hist.query(2, 7) == (2, 7)

    def test_table_history_piecewise_constant(self):
        hist = TableHistory({(0, 0): "a", (0, 10): "b"}, default="z")
        assert hist.query(0, 0) == "a"
        assert hist.query(0, 5) == "a"
        assert hist.query(0, 10) == "b"
        assert hist.query(0, 99) == "b"
        assert hist.query(1, 5) == "z"

    def test_composite_returns_named_components(self):
        pattern = FailurePattern.no_failures(3)
        det = CompositeDetector(
            {"omega": OmegaDetector(), "sigma": SigmaDetector()}
        )
        hist = det.history(pattern)
        sample = hist.query(0, 5)
        assert sample["omega"] == 0
        assert 0 in sample["sigma"]
        assert det.detector_name() == "Omega+Sigma"

    def test_composite_rejects_empty(self):
        with pytest.raises(ValueError):
            CompositeDetector({})

    def test_sample_range_helper(self):
        pattern = FailurePattern.no_failures(2)
        hist = OmegaDetector().history(pattern)
        samples = hist.sample_range(1, 0, 5)
        assert samples == [(t, 0) for t in range(5)]
