"""EXP-7: Omega is necessary for EC — the CHT-style extraction (Lemma 1).

Claim: from any algorithm implementing EC with a detector D, processes can
emulate Omega by gossiping detector samples (DAGs), simulating schedules of
the algorithm, and reading the deciding process off a decision gadget in the
simulation tree. The emulated output stabilizes on the same correct process
at all correct processes.

The second test is the extraction path's per-PR readout: wall time per
scenario, how many analysis rounds ran a fresh extraction versus reused the
last result on an unchanged DAG, and how many replayed steps ran the
simulated algorithm versus repeated a local step the same extraction had
already run (``steps_executed`` / ``steps_shared``, exact counts), printed
(``-s``) and published to the CI job summary. It gates no timing — the
ruler's ``report_campaign`` workload (``benchmarks/perf``) is that gate —
but it fails if a scenario shared no step at all: the replay memo
disengaging (say, a key part that stopped hashing) changes no result, so
nothing else would notice.
"""

import time

from benchmarks.step_summary import markdown_table, publish_step_summary
from repro.analysis.experiments import exp_cht_extraction
from repro.analysis.experiments.cht import SCENARIOS, run_cht_scenario


def test_exp7_cht_extraction(run_once):
    result = run_once(exp_cht_extraction)
    print("\n" + result.render())

    for row in result.rows:
        assert row["stabilized"], row
        assert row["correct"], row
        assert row["extractions"] > 0, row


def test_exp7_extraction_path_per_scenario():
    rows = []
    for label, *scenario in SCENARIOS:
        started = time.perf_counter()
        pattern, procs = run_cht_scenario(*scenario, seed=1)
        wall = time.perf_counter() - started
        run = sum(procs[pid].extractions_run for pid in pattern.correct)
        reused = sum(procs[pid].extractions_reused for pid in pattern.correct)
        assert 0 <= reused < run, (label, run, reused)
        executed = sum(procs[pid].steps_executed for pid in pattern.correct)
        shared = sum(procs[pid].steps_shared for pid in pattern.correct)
        assert executed > 0 and shared > 0, (label, executed, shared)
        rows.append((label, f"{wall:.2f}", run, reused, executed, shared))
    table = markdown_table(
        [
            "scenario", "wall s", "extractions_run", "extractions_reused",
            "steps_executed", "steps_shared",
        ],
        rows,
    )
    print("\n" + table)
    publish_step_summary("### EXP-7 extraction path (seed 1)\n\n" + table)
