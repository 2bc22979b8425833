"""Unit tests for failure patterns and environments."""

import pytest

from repro.sim.failures import Environment, FailurePattern


class TestFailurePattern:
    def test_no_failures_everyone_correct(self):
        pattern = FailurePattern.no_failures(4)
        assert pattern.correct == frozenset(range(4))
        assert pattern.faulty == frozenset()
        assert pattern.alive_at(10**6) == frozenset(range(4))

    def test_crash_time_boundary_is_inclusive(self):
        pattern = FailurePattern.crash(3, {1: 50})
        assert not pattern.crashed(1, 49)
        assert pattern.crashed(1, 50)
        assert pattern.crashed(1, 51)

    def test_crashed_set_monotone(self):
        pattern = FailurePattern.crash(4, {0: 10, 2: 30})
        assert pattern.crashed_set(5) == frozenset()
        assert pattern.crashed_set(10) == frozenset({0})
        assert pattern.crashed_set(30) == frozenset({0, 2})
        assert pattern.crashed_set(1000) == frozenset({0, 2})

    def test_correct_and_faulty_partition_processes(self):
        pattern = FailurePattern.crash(5, {1: 0, 3: 100})
        assert pattern.faulty == frozenset({1, 3})
        assert pattern.correct == frozenset({0, 2, 4})
        assert pattern.correct | pattern.faulty == frozenset(range(5))

    def test_crash_all_but(self):
        pattern = FailurePattern.crash_all_but(5, [2], at=70)
        assert pattern.correct == frozenset({2})
        assert pattern.alive_at(69) == frozenset(range(5))
        assert pattern.alive_at(70) == frozenset({2})

    def test_majority_flag(self):
        assert FailurePattern.crash(5, {0: 1, 1: 1}).has_correct_majority
        assert not FailurePattern.crash(5, {0: 1, 1: 1, 2: 1}).has_correct_majority

    def test_invalid_pid_rejected(self):
        with pytest.raises(ValueError):
            FailurePattern.crash(3, {7: 10})

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FailurePattern.crash(3, {1: -1})

    def test_describe_mentions_crashes(self):
        text = FailurePattern.crash(3, {2: 9}).describe()
        assert "p2@t9" in text
        assert FailurePattern.no_failures(2).describe().endswith("crash-free")

    def test_last_crash_time(self):
        assert FailurePattern.no_failures(3).last_crash_time() == 0
        assert FailurePattern.crash(3, {0: 5, 1: 42}).last_crash_time() == 42


class TestEnvironment:
    def test_arbitrary_accepts_minority_correct(self):
        env = Environment.arbitrary(5)
        assert env.contains(FailurePattern.crash(5, {0: 1, 1: 1, 2: 1, 3: 1}))

    def test_arbitrary_rejects_all_faulty(self):
        env = Environment.arbitrary(3)
        assert not env.contains(FailurePattern.crash(3, {0: 1, 1: 1, 2: 1}))

    def test_majority_correct_boundary(self):
        env = Environment.majority_correct(4)
        assert env.contains(FailurePattern.crash(4, {0: 1}))  # 3 of 4 correct
        assert not env.contains(FailurePattern.crash(4, {0: 1, 1: 1}))  # 2 of 4

    def test_minority_correct(self):
        env = Environment.minority_correct(5)
        assert env.contains(FailurePattern.crash(5, {0: 1, 1: 1, 2: 1}))
        assert not env.contains(FailurePattern.no_failures(5))

    def test_crash_free_contains_only_empty_pattern(self):
        env = Environment.crash_free(3)
        assert env.contains(FailurePattern.no_failures(3))
        assert not env.contains(FailurePattern.crash(3, {0: 10}))

    def test_at_most_f(self):
        env = Environment.at_most_f(5, 2)
        assert env.contains(FailurePattern.crash(5, {0: 1, 1: 1}))
        assert not env.contains(FailurePattern.crash(5, {0: 1, 1: 1, 2: 1}))

    def test_at_most_f_rejects_bad_f(self):
        with pytest.raises(ValueError):
            Environment.at_most_f(3, 3)

    def test_wrong_n_not_contained(self):
        env = Environment.arbitrary(4)
        assert not env.contains(FailurePattern.no_failures(3))
