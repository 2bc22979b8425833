"""Extraction of delivery timelines from run records.

(E)TOB layers emit ``("deliver", seq)`` whenever their output variable ``d_i``
changes and ``("broadcast-uid", uid, payload)`` when a message is broadcast.
A :class:`DeliveryTimeline` reconstructs from those outputs, per process, the
step function ``t -> d_i(t)``, plus the broadcast events, for code that wants
to inspect a run's deliveries by hand. The checkers and metrics never build
one: they fold the same outputs as they stream by (see
:class:`~repro.properties.etob_checker.EtobMonitor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.messages import AppMessage, MessageId
from repro.sim.runs import RunRecord
from repro.sim.types import ProcessId, Time


@dataclass
class DeliveryTimeline:
    """Per-process delivered-sequence evolution plus broadcast events."""

    #: pid -> ordered list of (time, sequence snapshot); implicit () at t=-1.
    snapshots: dict[ProcessId, list[tuple[Time, tuple[AppMessage, ...]]]]
    #: uid -> (broadcaster pid, broadcast time, payload)
    broadcasts: dict[MessageId, tuple[ProcessId, Time, Any]]
    #: horizon: the run's end time.
    end_time: Time

    def sequence_at(self, pid: ProcessId, t: Time) -> tuple[AppMessage, ...]:
        """``d_pid(t)``: the last snapshot at or before ``t``."""
        current: tuple[AppMessage, ...] = ()
        for snap_time, sequence in self.snapshots.get(pid, []):
            if snap_time > t:
                break
            current = sequence
        return current

    def final_sequence(self, pid: ProcessId) -> tuple[AppMessage, ...]:
        """The last delivered sequence of ``pid`` in the run."""
        snaps = self.snapshots.get(pid, [])
        return snaps[-1][1] if snaps else ()


def extract_timeline(run: RunRecord) -> DeliveryTimeline:
    """Build the delivery timeline of a run from its tagged outputs."""
    snapshots: dict[ProcessId, list[tuple[Time, tuple[AppMessage, ...]]]] = {}
    broadcasts: dict[MessageId, tuple[ProcessId, Time, Any]] = {}
    for pid in range(run.n):
        snapshots[pid] = [
            (t, tuple(sequence))
            for t, (sequence,) in run.tagged_outputs(pid, "deliver")
        ]
        for t, payload in run.tagged_outputs(pid, "broadcast-uid"):
            uid, message_payload = payload
            broadcasts[uid] = (pid, t, message_payload)
    return DeliveryTimeline(
        snapshots=snapshots, broadcasts=broadcasts, end_time=run.end_time
    )
