"""Checker for TOB-Causal-Order.

The paper: if ``m1`` causally precedes ``m2`` and both appear in ``d_i(t)``,
then ``m1`` appears before ``m2``. Causal precedence here is the transitive
closure of the explicit dependency sets ``C(m)`` carried by every
:class:`~repro.core.messages.AppMessage` — which, when protocols use the
default frontier dependencies, coincides with the paper's send/receive
causality for messages travelling through the broadcast layer.

The check is *unconditional in time* (the paper's causal order property has
no stabilization prefix): every snapshot of every examined process is
checked, by one fold, :class:`CausalMonitor`, live or by replay.
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
class CausalReport:
    """Outcome of a causal-order check."""

    ok: bool
    violations: list[str] = field(default_factory=list)
    pairs_checked: int = 0


class CausalMonitor(OutputMonitor):
    """The causal-order fold over ``("deliver", seq)`` outputs.

    Causal pasts are closed over the messages delivered anywhere in the
    run. Per correct process the fold keeps each uid's position, the count
    of causally related pairs and the pairs out of order, so an extension
    is checked on its new suffix and on the messages that have it in their
    causal past. A snapshot that repeats a message is checked whole; one
    whose causal past reaches a message not delivered anywhere yet waits
    until it is, at the latest until :meth:`report` (under frontier
    dependencies none waits).
    """

    def __init__(self, correct: Iterable[ProcessId]) -> None:
        self.correct = frozenset(correct)
        self.pairs_checked = 0
        self.sequences: dict[ProcessId, tuple[AppMessage, ...]] = {}
        #: uid -> C(m), for every message delivered anywhere so far.
        self.deps: dict[MessageId, frozenset[MessageId]] = {}
        #: the causal past of each message whose past is all delivered.
        self._ancestors: dict[MessageId, frozenset[MessageId]] = {}
        self._descendants: dict[MessageId, list[MessageId]] = {}
        #: correct pid -> (uid -> position, related pairs, uid -> ancestors
        #: at or after it), or None: check the next snapshot whole.
        self._state: dict[ProcessId, tuple | None] = {}
        #: (pid, snapshot number, text); (pid, number, t, seq) waiting.
        self._violations: list[tuple[ProcessId, int, str]] = []
        self._waiting: list[tuple[ProcessId, int, Time, tuple]] = []
        self._snapshots = 0

    def ancestors(self, uid: MessageId) -> tuple[frozenset[MessageId], bool]:
        """(the causal past of ``uid`` as known now, whether every message
        in it has been delivered somewhere); memoized once complete."""
        cached = self._ancestors.get(uid)
        if cached is not None:
            return cached, True
        if uid not in self.deps:
            return frozenset(), False
        acc: set[MessageId] = set()
        complete = True
        for dep in self.deps[uid]:
            acc.add(dep)
            past, known = self.ancestors(dep)
            acc |= past
            complete = complete and known
        result = frozenset(acc)
        if complete:
            self._ancestors[uid] = result
            for ancestor in result:
                self._descendants.setdefault(ancestor, []).append(uid)
        return result, complete

    def fold(self, t: Time, pid: ProcessId, outputs: tuple[Any, ...]) -> None:
        for out in outputs:
            if isinstance(out, tuple) and out and out[0] == "deliver":
                seq = tuple(out[1])
                old = self.sequences.get(pid, ())
                self.sequences[pid] = seq
                start = len(old) if seq[: len(old)] == old else 0
                fresh = [m for m in seq[start:] if m.uid not in self.deps]
                for message in fresh:
                    self.deps[message.uid] = message.deps
                if fresh and self._waiting:
                    self._recheck_waiting()
                if pid in self.correct:
                    self._snapshots += 1
                    self._check(pid, self._snapshots, t, seq, start)

    def _check(self, pid: ProcessId, number: int, t: Time, seq: tuple, start: int) -> None:
        state = self._state.get(pid) if start else None
        if state is None:
            start, state = 0, ({}, 0, {})
        position, pairs, late = state
        for i in range(start, len(seq)):
            position[seq[i].uid] = i
        pasts = [self.ancestors(m.uid) for m in seq[start:]]
        if len(position) != len(seq) or not all(known for __, known in pasts):
            self._state[pid] = None
            self._waiting.append((pid, number, t, seq))
            self._recheck_waiting()
            return
        affected: set[MessageId] = set()
        for i, (past, __) in enumerate(pasts, start):
            uid = seq[i].uid
            for ancestor in past:
                at = position.get(ancestor)
                if at is not None:
                    pairs += 1
                    if at >= i:
                        late.setdefault(uid, []).append(ancestor)
            for descendant in self._descendants.get(uid, ()) if start else ():
                if position.get(descendant, start) < start:
                    pairs += 1
                    affected.add(descendant)
        for uid in affected:
            late[uid] = [
                a for a in self._ancestors[uid] if position.get(a, -1) >= position[uid]
            ]
        self._state[pid] = (position, pairs, late)
        self.pairs_checked += pairs
        for uid in sorted(late, key=position.__getitem__):
            self._violations += [
                (pid, number, f"causal: p{pid}@t{t}: {a} after {uid}") for a in late[uid]
            ]

    def _check_whole(
        self, pid: ProcessId, number: int, t: Time, seq: tuple, out: list
    ) -> int:
        """Check one whole snapshot, every occurrence of a repeated message
        against each ancestor's last position; returns the pairs."""
        position = {m.uid: i for i, m in enumerate(seq)}
        pairs = 0
        for message in seq:
            for ancestor in self.ancestors(message.uid)[0]:
                if ancestor in position:
                    pairs += 1
                    if position[ancestor] >= position[message.uid]:
                        out.append(
                            (pid, number, f"causal: p{pid}@t{t}: {ancestor} after {message.uid}")
                        )
        return pairs

    def _recheck_waiting(self) -> None:
        waiting, self._waiting = self._waiting, []
        for snapshot in waiting:
            if all(self.ancestors(m.uid)[1] for m in snapshot[3]):
                self.pairs_checked += self._check_whole(*snapshot, self._violations)
            else:
                self._waiting.append(snapshot)

    def report(self) -> CausalReport:
        """The verdict so far; a waiting snapshot is checked with the causal
        pasts known now."""
        violations = list(self._violations)
        pairs = self.pairs_checked + sum(
            self._check_whole(*snapshot, violations) for snapshot in self._waiting
        )
        violations.sort(key=itemgetter(0, 1))
        return CausalReport(
            ok=not violations,
            violations=[text for __, ___, text in violations],
            pairs_checked=pairs,
        )


def check_causal_order(
    run: RunRecord, *, correct: Iterable[ProcessId] | None = None
) -> CausalReport:
    """Check TOB-Causal-Order on every snapshot of every correct process."""
    monitor = CausalMonitor(run.correct if correct is None else correct)
    return monitor.replay(run).report()
