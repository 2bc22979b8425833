"""Edge cases for the property checkers: empty runs, single processes,
restricted correct sets, and boundary conditions."""

from repro.core.messages import AppMessage, MessageId
from repro.properties import (
    check_causal_order,
    check_ec,
    check_eic,
    check_etob,
    check_tob,
    extract_timeline,
)
from repro.sim.failures import FailurePattern
from repro.sim.runs import RunRecord


def empty_run(n=2, crashes=None):
    return RunRecord(n, FailurePattern.crash(n, crashes or {}))


def m(sender, seq):
    return AppMessage(MessageId(sender, seq), f"m{sender}.{seq}")


class TestEmptyRuns:
    def test_etob_on_empty_run_is_vacuously_ok(self):
        report = check_etob(empty_run())
        assert report.ok
        assert report.tau == 0

    def test_tob_on_empty_run(self):
        assert check_tob(empty_run()).ok

    def test_causal_on_empty_run(self):
        report = check_causal_order(empty_run())
        assert report.ok
        assert report.pairs_checked == 0

    def test_ec_on_empty_run_fails_termination(self):
        report = check_ec(empty_run())
        assert not report.termination_ok

    def test_eic_on_empty_run_fails_termination(self):
        report = check_eic(empty_run())
        assert not report.termination_ok


class TestRestrictedCorrectSets:
    def test_etob_ignores_processes_outside_correct_set(self):
        a = m(0, 0)
        run = empty_run(3)
        run.output_history[0] = [
            (1, ("broadcast-uid", a.uid, "x")),
            (5, ("deliver", (a,))),
        ]
        # p1 never delivers; with correct={0} the check still passes.
        assert check_etob(run, correct={0}).ok
        assert not check_etob(run, correct={0, 1}).agreement_ok

    def test_faulty_broadcaster_needs_no_validity(self):
        a = m(2, 0)
        run = RunRecord(3, FailurePattern.crash(3, {2: 10}))
        run.output_history[2] = [(1, ("broadcast-uid", a.uid, "x"))]
        # p2 is faulty: its undelivered broadcast violates nothing...
        report = check_etob(run)
        assert report.validity_ok
        # ...unless someone correct stably delivered it and others did not.


class TestSingleProcess:
    def test_single_process_system(self):
        a = m(0, 0)
        run = empty_run(1)
        run.output_history[0] = [
            (1, ("broadcast-uid", a.uid, "solo")),
            (4, ("deliver", (a,))),
        ]
        report = check_etob(run)
        assert report.ok
        assert report.tau == 0

    def test_single_process_ec(self):
        run = empty_run(1)
        run.output_history[0] = [
            (0, ("propose", 1, "v")),
            (3, ("decide", 1, "v")),
        ]
        report = check_ec(run, expected_instances=1)
        assert report.ok
        assert report.agreement_index == 1


class TestBoundaryConditions:
    def test_message_delivered_at_time_zero(self):
        a = m(0, 0)
        run = empty_run(2)
        run.output_history[0] = [
            (0, ("broadcast-uid", a.uid, "x")),
            (0, ("deliver", (a,))),
        ]
        run.output_history[1] = [(0, ("deliver", (a,)))]
        report = check_etob(run)
        assert report.ok and report.tau == 0

    def test_sequence_shrinks_to_empty(self):
        a = m(0, 0)
        run = empty_run(2)
        run.output_history[0] = [
            (1, ("broadcast-uid", a.uid, "x")),
            (5, ("deliver", (a,))),
            (8, ("deliver", ())),
            (12, ("deliver", (a,))),
        ]
        run.output_history[1] = [(9, ("deliver", (a,)))]
        report = check_etob(run)
        assert report.stability_violations >= 1
        assert report.tau_stability == 9

    def test_timeline_sequence_before_any_snapshot_is_empty(self):
        run = empty_run(2)
        run.output_history[0] = [(10, ("deliver", (m(0, 0),)))]
        tl = extract_timeline(run)
        assert tl.sequence_at(0, 9) == ()
        assert tl.sequence_at(1, 100) == ()

    def test_ec_agreement_index_with_gap_instances(self):
        # p0 decided 1..3; p1 decided 1..2: last common is 2.
        run = empty_run(2)
        run.output_history[0] = [
            (0, ("propose", 1, "a")), (1, ("decide", 1, "a")),
            (2, ("propose", 2, "b")), (3, ("decide", 2, "b")),
            (4, ("propose", 3, "c")), (5, ("decide", 3, "c")),
        ]
        run.output_history[1] = [
            (0, ("propose", 1, "a")), (1, ("decide", 1, "a")),
            (2, ("propose", 2, "b")), (3, ("decide", 2, "b")),
        ]
        report = check_ec(run)
        assert report.last_common_instance == 2
        assert report.agreement_index == 1


def consensus_run(answers: dict[int, list[tuple[str, int, object]]]) -> RunRecord:
    """A run whose process ``p`` proposes and then answers each
    ``(tag, instance, value)`` of ``answers[p]``, one per tick."""
    run = empty_run(len(answers))
    for pid, outputs in answers.items():
        history = run.output_history[pid] = []
        for t, (tag, instance, value) in enumerate(outputs):
            history.append((2 * t, ("propose", instance, value)))
            history.append((2 * t + 1, (tag, instance, value)))
    return run


class TestSkippedInstances:
    """A correct process whose answers skip an instance at or below L gets
    a report — a termination violation naming the instance — not a
    ``KeyError``."""

    def test_ec_agreement_stops_at_an_instance_every_process_skipped(self):
        # Both skip instance 2 and disagree on 1: agreement holds on [3, 3]
        # only, since nobody decided 2.
        run = consensus_run({
            0: [("decide", 1, "a"), ("decide", 3, "c")],
            1: [("decide", 1, "x"), ("decide", 3, "c")],
        })
        report = check_ec(run)
        assert (report.last_common_instance, report.agreement_index) == (3, 3)
        assert report.agreement_time == 3
        assert not report.termination_ok and not report.ok
        assert "termination: p0 missing instances [2]" in report.violations
        assert "termination: p1 missing instances [2]" in report.violations

    def test_ec_a_decided_none_does_not_stand_in_for_a_skipped_instance(self):
        run = consensus_run({
            0: [("decide", 1, "a"), ("decide", 2, None), ("decide", 3, "c")],
            1: [("decide", 1, "x"), ("decide", 3, "c")],
        })
        report = check_ec(run)
        assert report.agreement_index == 3
        assert report.violations == ["termination: p1 missing instances [2]"]

    def test_eic_agreement_passes_over_a_skipped_instance(self):
        run = consensus_run({
            0: [("decide", 1, "a"), ("decide", 3, "c")],
            1: [("decide", 1, "a"), ("decide", 2, "b"), ("decide", 3, "c")],
        })
        report = check_eic(run)
        assert report.last_common_instance == 3
        assert report.agreement_ok and not report.termination_ok
        assert report.violations == ["termination: p0 missing instances [2]"]
