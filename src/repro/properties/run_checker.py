"""The fairness slack of a finite run.

The paper's admissible runs require every correct process to take
infinitely many steps. On a finite run the analogue is a bound on the gap
between consecutive steps of a correct process: round-robin scheduling gives
exactly ``n`` clock ticks, so a run is fair at slack ``s`` when
``fairness_slack(run) <= s * run.n``. (The other admissibility condition,
that every message sent to a correct process is received, reads off the
simulation: ``sim.network.pending_for(sim.correct) == 0``.)
"""

from __future__ import annotations

from repro.sim.runs import RunRecord
from repro.sim.types import Time


def fairness_slack(run: RunRecord) -> Time:
    """The run's worst fairness gap: the largest number of clock ticks any
    correct process went without taking a step (including the tail from its
    last step to the run's end). A correct process that never stepped
    yields ``run.end_time + 1`` (strictly larger than any realizable gap on
    the run).

    This is the falsifier's *fairness slack* objective read off a finished
    record's :meth:`~repro.sim.runs.RunRecord.step_times` columns;
    :class:`repro.sim.observers.StepGapProbe` computes the same value online
    without retaining any steps.
    """
    worst: Time = 0
    for pid in sorted(run.correct):
        last_time = -1
        for step_time in run.step_times(pid):
            if last_time >= 0 and step_time - last_time > worst:
                worst = step_time - last_time
            last_time = step_time
        if last_time < 0:
            return run.end_time + 1
        if run.end_time - last_time > worst:
            worst = run.end_time - last_time
    return worst
