"""Tests for the analysis package: tables, latency metrics, divergence."""

import pytest

from repro.analysis import Table, divergence_windows, latency_report, message_counts
from repro.core.messages import AppMessage, MessageId
from repro.sim.failures import FailurePattern
from repro.sim.runs import RunRecord


class TestTable:
    def test_render_aligns_columns(self):
        table = Table("Title", ["a", "bbbb"])
        table.add_row(1, "x")
        table.add_row(100, "yy")
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "a   | bbbb" in text
        assert "100 | yy" in text

    def test_cell_formatting(self):
        table = Table("T", ["f", "b"])
        table.add_row(1.23456, True)
        assert "1.23" in table.render()
        assert "yes" in table.render()

    def test_wrong_arity_rejected(self):
        table = Table("T", ["one"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)


def m(sender, seq):
    return AppMessage(MessageId(sender, seq), f"p{sender}.{seq}")


def make_run(n, outputs):
    run = RunRecord(n, FailurePattern.no_failures(n))
    for pid, events in outputs.items():
        run.output_history[pid] = list(events)
        if events:
            run.end_time = max(run.end_time, max(t for t, __ in events))
    return run


A, B = m(0, 0), m(1, 0)


class TestLatencyReport:
    def test_latency_of_delivered_message(self):
        outputs = {
            0: [(5, ("broadcast-uid", A.uid, A.payload)), (15, ("deliver", (A,)))],
            1: [(25, ("deliver", (A,)))],
        }
        report = latency_report(make_run(2, outputs), delay_ticks=10)
        (lat,) = report.latencies
        assert lat.broadcast_time == 5
        assert lat.everywhere_time == 25
        assert lat.latency_ticks == 20
        assert report.mean_steps() == 2.0
        assert report.undelivered_count == 0

    def test_undelivered_message_reported(self):
        outputs = {
            0: [(5, ("broadcast-uid", A.uid, A.payload)), (15, ("deliver", (A,)))],
            1: [],  # never delivers
        }
        report = latency_report(make_run(2, outputs), delay_ticks=10)
        assert report.undelivered_count == 1
        assert report.mean_steps() is None

    def test_unstable_delivery_not_counted(self):
        # A appears then disappears at p1: not a stable delivery.
        outputs = {
            0: [(5, ("broadcast-uid", A.uid, A.payload)),
                (6, ("broadcast-uid", B.uid, B.payload)),
                (15, ("deliver", (A, B)))],
            1: [(10, ("deliver", (A,))), (20, ("deliver", (B,)))],
        }
        report = latency_report(make_run(2, outputs), delay_ticks=10)
        by_uid = {l.uid: l for l in report.latencies}
        assert by_uid[A.uid].stable_times[1] is None

    def test_timer_overhead_subtracted(self):
        outputs = {
            0: [(0, ("broadcast-uid", A.uid, A.payload)), (26, ("deliver", (A,)))],
            1: [(26, ("deliver", (A,)))],
        }
        report = latency_report(make_run(2, outputs), delay_ticks=10, timer_ticks=3)
        assert report.mean_steps() == 2.0  # (26 - 6) / 10


class TestDivergenceWindows:
    def test_no_divergence_for_consistent_runs(self):
        outputs = {
            0: [(5, ("deliver", (A,))), (9, ("deliver", (A, B)))],
            1: [(6, ("deliver", (A,))), (11, ("deliver", (A, B)))],
        }
        assert divergence_windows(make_run(2, outputs)) == []

    def test_conflict_opens_and_closes_window(self):
        outputs = {
            0: [(5, ("deliver", (A, B)))],
            1: [(8, ("deliver", (B, A))), (20, ("deliver", (A, B)))],
        }
        windows = divergence_windows(make_run(2, outputs))
        # Order conflict from t=8 to its resolution at t=20, merged with the
        # one-tick non-extensive-rewrite event at t=20.
        assert windows == [(8, 21)]

    def test_rewrite_without_conflict_is_one_tick_window(self):
        outputs = {
            0: [(5, ("deliver", (A,))), (9, ("deliver", (B, A)))],
            1: [],
        }
        windows = divergence_windows(make_run(2, outputs))
        assert windows == [(9, 10)]

    def test_open_conflict_closes_at_end(self):
        outputs = {
            0: [(5, ("deliver", (A, B)))],
            1: [(8, ("deliver", (B, A)))],
        }
        windows = divergence_windows(make_run(2, outputs))
        assert windows == [(8, 9)]


class TestMessageCounts:
    def test_counts_from_simulation(self):
        from repro.sim import Process, Simulation

        class Chatty(Process):
            def on_timeout(self, ctx):
                ctx.send_all("beat", include_self=False)

        sim = Simulation([Chatty(), Chatty()], timeout_interval=4)
        sim.run_until(40)
        counts = message_counts(sim)
        assert counts["sent"] > 0
        assert counts["sent"] == counts["delivered"] + counts["in_transit"]
