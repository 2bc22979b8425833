"""Checker for the ETOB specification (paper, Section 3).

``check_etob`` verifies, on a finite run record:

- TOB-Validity: every message broadcast by a correct process is stably
  delivered by that process (and, via agreement, by all correct processes);
- TOB-No-creation: delivered messages were broadcast;
- TOB-No-duplication: no sequence contains a message twice;
- TOB-Agreement: a message stably delivered by some correct process is
  stably delivered by every correct process;
- ETOB-Stability: it *discovers* the smallest time ``tau_stability`` from
  which every correct process's sequence only grows by extension;
- ETOB-Total-order: it discovers the smallest time ``tau_total_order`` from
  which the current sequences of any two correct processes never order a
  common pair of messages differently. Two correct processes whose
  sequences still order a common pair differently when the run ends never
  reached that time: ``total_order_ok`` is then false, whatever
  ``tau_total_order`` reads.

``tau`` (the paper's stabilization time) is the max of the two; strong TOB is
the special case ``tau == 0`` (see :mod:`repro.properties.tob_checker`).

All of it is one fold, :class:`EtobMonitor`, over the ``("deliver", seq)``
and ``("broadcast-uid", uid, payload)`` outputs: attached to a run it checks
it live, and ``check_etob`` replays a retained run through it.

Finite-run caveat: "eventually" is read as "by the end of the run"; callers
must run simulations long enough past the last disturbance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable

from repro.core.messages import AppMessage, MessageId
from repro.sim.observers import OutputMonitor
from repro.sim.runs import RunRecord
from repro.sim.types import ProcessId, Time


@dataclass
class EtobReport:
    """Outcome of an ETOB specification check."""

    validity_ok: bool
    no_creation_ok: bool
    no_duplication_ok: bool
    agreement_ok: bool
    tau_stability: Time
    tau_total_order: Time
    violations: list[str] = field(default_factory=list)
    #: number of snapshot adoptions that were not prefix extensions.
    stability_violations: int = 0
    #: number of pairwise order conflicts observed.
    order_violations: int = 0
    #: False when two correct processes still order a common pair of
    #: messages differently at the end of the run.
    total_order_ok: bool = True

    @property
    def tau(self) -> Time:
        """The discovered overall stabilization time."""
        return max(self.tau_stability, self.tau_total_order)

    @property
    def ok(self) -> bool:
        return (
            self.validity_ok
            and self.no_creation_ok
            and self.no_duplication_ok
            and self.agreement_ok
            and self.total_order_ok
        )

    def is_strong_tob(self) -> bool:
        """True iff the run satisfied the *strong* TOB spec (tau = 0)."""
        return self.ok and self.tau == 0


def _scan_order(
    sequence: tuple[AppMessage, ...],
    start: int,
    theirs: dict[MessageId, int],
    last: MessageId | None,
) -> tuple[bool, MessageId | None]:
    """The total-order test of two sequences (no common pair in opposite
    orders), resumed: ``theirs`` maps the other's uids to first positions,
    and ``sequence[:start]`` passed with ``last`` its last common uid.
    Returns (consistent, the last common uid)."""
    bound = -1 if last is None else theirs[last]
    for i in range(start, len(sequence)):
        uid = sequence[i].uid
        at = theirs.get(uid)
        if at is None:
            continue
        if at < bound:
            return False, None
        bound, last = at, uid
    return True, last


class EtobMonitor(OutputMonitor):
    """The ETOB fold; see the module docstring.

    ``correct`` names the processes whose validity, agreement, stability
    and total order are checked; no-creation and no-duplication hold for
    every process. Per process the fold keeps the current sequence, each
    uid's first position and the time since which it has been present (its
    stable-delivery time, at the end); per pair of correct processes,
    whether they conflict, or else their last common message. An extension
    costs one tuple comparison plus work on its new suffix; a conflict
    survives any extension, so only a rewrite rescans, and an extension
    holding nothing of the other's sequence leaves the pair as it was.
    """

    def __init__(self, correct: Iterable[ProcessId]) -> None:
        self.correct = frozenset(correct)
        self._order = sorted(self.correct)
        self.sequences: dict[ProcessId, tuple[AppMessage, ...]] = {}
        #: pid -> uid -> its first position / the time since it is present.
        self._first: dict[ProcessId, dict[MessageId, int]] = {}
        self._since: dict[ProcessId, dict[MessageId, Time]] = {}
        #: uid -> (broadcaster, broadcast time).
        self.broadcasts: dict[MessageId, tuple[ProcessId, Time]] = {}
        self._unbroadcast: set[MessageId] = set()
        self._duplicates: list[tuple[ProcessId, Time]] = []
        #: times at which a correct sequence did not extend its predecessor.
        self.rewrites: list[Time] = []
        #: pair (a, b), a < b -> their last common uid, unless they conflict.
        self._last_common: dict[tuple[ProcessId, ProcessId], MessageId | None] = {}
        self._conflicts: set[tuple[ProcessId, ProcessId]] = set()
        self.order_violations = 0
        self._last_order_violation: Time = -1
        #: closed conflict windows, and the start of an open one.
        self._conflict_windows: list[tuple[Time, Time]] = []
        self._conflict_open: Time | None = None

    def fold(self, t: Time, pid: ProcessId, outputs: tuple[Any, ...]) -> None:
        for out in outputs:
            if not (isinstance(out, tuple) and out):
                continue
            if out[0] == "deliver":
                self._deliver(t, pid, tuple(out[1]))
            elif out[0] == "broadcast-uid":
                self.broadcasts[out[1]] = (pid, t)
                self._unbroadcast.discard(out[1])

    def _deliver(self, t: Time, pid: ProcessId, seq: tuple[AppMessage, ...]) -> None:
        old = self.sequences.get(pid, ())
        self.sequences[pid] = seq
        rewrite = seq[: len(old)] != old
        start = 0 if rewrite else len(old)
        previous = self._since[pid] if rewrite else {}
        if rewrite or pid not in self._first:
            self._first[pid], self._since[pid] = {}, {}
        first, since = self._first[pid], self._since[pid]
        entered: list[MessageId] = []
        for i in range(start, len(seq)):
            uid = seq[i].uid
            if uid not in first:
                first[uid] = i
                since[uid] = previous.get(uid, t)
                entered.append(uid)
                if uid not in self.broadcasts:
                    self._unbroadcast.add(uid)
        duplicated = len(first) != len(seq)
        if duplicated:
            self._duplicates.append((pid, t))
        if pid not in self.correct:
            return
        if rewrite:
            self.rewrites.append(t)
        for other in self._order:
            if other == pid:
                continue
            pair = (pid, other) if pid < other else (other, pid)
            theirs = self.sequences.get(other, ())
            at = self._first.get(other, {})
            if duplicated or len(at) != len(theirs):
                # A repeated message: scan whole, each way (the orders
                # differ once an element repeats).
                ok = _scan_order(seq, 0, at, None)[0]
                pair_ok = ok if pid < other else _scan_order(theirs, 0, first, None)[0]
            elif not rewrite and pair in self._conflicts:
                ok = pair_ok = False
            elif not rewrite and at.keys().isdisjoint(entered):
                # The scan would pass over the whole suffix and keep the
                # pair's last common uid.
                continue
            else:
                last = None if rewrite else self._last_common.get(pair)
                ok, self._last_common[pair] = _scan_order(seq, start, at, last)
                pair_ok = ok
            if not ok:
                self.order_violations += 1
                self._last_order_violation = t
            if pair_ok:
                self._conflicts.discard(pair)
            else:
                self._conflicts.add(pair)
        if self._conflicts and self._conflict_open is None:
            self._conflict_open = t
        elif not self._conflicts and self._conflict_open is not None:
            self._conflict_windows.append((self._conflict_open, t))
            self._conflict_open = None

    def stable_delivery_time(self, pid: ProcessId, uid: MessageId) -> Time | None:
        """The paper's *stable delivery* of ``uid`` at ``pid`` so far: the
        earliest time from which it appears in every later sequence, or None
        when the current sequence lacks it."""
        return self._since.get(pid, {}).get(uid)

    def divergence_windows(self, end_time: Time) -> list[tuple[Time, Time]]:
        """Windows of visible divergence among the correct processes (see
        :func:`repro.analysis.metrics.divergence_windows`); a conflict still
        open closes at ``end_time + 1``."""
        raw = [(t, t + 1) for t in self.rewrites] + self._conflict_windows
        if self._conflict_open is not None:
            raw.append((self._conflict_open, end_time + 1))
        merged: list[tuple[Time, Time]] = []
        for start, end in sorted(raw):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    def report(self) -> EtobReport:
        """The verdicts on the outputs folded so far."""
        violations = [
            f"no-creation: delivered but never broadcast: {sorted(self._unbroadcast)}"
        ] if self._unbroadcast else []
        violations += [
            f"no-duplication: p{pid}@t{t} has duplicates"
            for pid, t in sorted(self._duplicates, key=itemgetter(0))
        ]
        invalid = [
            f"validity: p{broadcaster} never stably delivered its own {uid}"
            for uid, (broadcaster, __) in sorted(self.broadcasts.items())
            if broadcaster in self.correct
            and self.stable_delivery_time(broadcaster, uid) is None
        ]
        finals = [self._since.get(pid, {}) for pid in self._order]
        disagreeing = [
            f"agreement: {uid} stably delivered somewhere but not by p{pid}"
            for uid in sorted(set().union(*finals))
            for pid, final in zip(self._order, finals)
            if uid not in final
        ]
        unordered = [
            f"total-order: p{a} and p{b} still order common messages "
            "differently at the end of the run"
            for a, b in sorted(self._conflicts)
        ]
        violations += invalid + disagreeing + unordered
        return EtobReport(
            validity_ok=not invalid,
            no_creation_ok=not self._unbroadcast,
            no_duplication_ok=not self._duplicates,
            agreement_ok=not disagreeing,
            tau_stability=max(self.rewrites, default=-1) + 1,
            tau_total_order=self._last_order_violation + 1,
            violations=violations,
            stability_violations=len(self.rewrites),
            order_violations=self.order_violations,
            total_order_ok=not unordered,
        )


def check_etob(
    run: RunRecord, *, correct: Iterable[ProcessId] | None = None
) -> EtobReport:
    """Check the ETOB properties of a run; see the module docstring."""
    monitor = EtobMonitor(run.correct if correct is None else correct)
    return monitor.replay(run).report()
