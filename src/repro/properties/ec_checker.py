"""Checker for the EC specification (paper, Section 3).

Consumes runs whose processes record ``("propose", l, v)`` and
``("decide", l, v)`` outputs (the convention of
:class:`~repro.core.drivers.EcDriverLayer` and the transformation layers):

- EC-Termination: every correct process decided instances ``1..L`` (``L``
  defaults to the largest instance *all* correct processes completed);
- EC-Integrity: no process decided an instance twice;
- EC-Validity: every decided value was proposed in that instance (by anyone);
- EC-Agreement: discovers the smallest index ``k`` such that all correct
  decisions agree for every instance in ``[k, L]``.

The paper guarantees such a ``k`` exists for infinite admissible runs; on a
finite run callers assert ``agreement_index <= L`` (agreement was actually
observed) and typically relate ``k``'s decision time to the detector's
stabilization time.

One fold, :class:`EcMonitor`, checks all of it, live or by replay
(``check_ec``). It reads only outputs and the correct set, so
``record="outputs"`` gives the same verdicts as ``record="full"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.sim.observers import OutputMonitor
from repro.sim.runs import RunRecord
from repro.sim.types import ProcessId, Time


@dataclass
class EcReport:
    """Outcome of an EC specification check."""

    termination_ok: bool
    integrity_ok: bool
    validity_ok: bool
    #: smallest k with agreement on all instances in [k, L]; L+1 when even
    #: the last common instance disagrees.
    agreement_index: int
    #: largest instance decided by every correct process.
    last_common_instance: int
    #: time at which the last correct process decided instance
    #: ``agreement_index`` (useful to compare against detector stabilization).
    agreement_time: Time | None
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.termination_ok
            and self.integrity_ok
            and self.validity_ok
            and self.agreement_index <= self.last_common_instance
        )


class ConsensusMonitor(OutputMonitor):
    """What the EC and EIC folds share: every process's proposals (by
    ``repr``, so unhashable values work), and per correct process its
    ``answers`` per instance (folded by the subclass's ``_answer``) and the
    instances it answered again."""

    #: the output tags that answer an instance.
    tags: tuple[str, ...] = ()

    def __init__(
        self, correct: Iterable[ProcessId], *, expected_instances: int | None = None
    ) -> None:
        self.correct = sorted(frozenset(correct))
        self.expected_instances = expected_instances
        #: instance -> the reprs of the values proposed to it.
        self.proposals: dict[int, set[str]] = {}
        self.answers: dict[ProcessId, dict[int, Any]] = {p: {} for p in self.correct}
        self.repeated: dict[ProcessId, list[int]] = {p: [] for p in self.correct}

    def fold(self, t: Time, pid: ProcessId, outputs: tuple[Any, ...]) -> None:
        for out in outputs:
            if not (isinstance(out, tuple) and out):
                continue
            if out[0] == "propose":
                __, instance, value = out
                self.proposals.setdefault(instance, set()).add(repr(value))
            elif out[0] in self.tags and pid in self.answers:
                tag, instance, value = out
                if instance in self.answers[pid]:
                    self.repeated[pid].append(instance)
                self._answer(t, pid, tag, instance, value)

    def _termination(self, violations: list[str]) -> tuple[int, bool]:
        """(L, termination ok): L is the smallest of the correct processes'
        largest answered instances, capped at the expected count. Every
        correct process must answer every instance up to the expected
        count, or up to L when none is expected: one it skipped is a
        termination violation."""
        expected = self.expected_instances
        last_common = min(
            (max(self.answers[pid], default=0) for pid in self.correct), default=0
        )
        if expected is not None:
            last_common = min(last_common, expected)
        ok = last_common >= 1
        upto = last_common if expected is None else expected
        for pid in self.correct:
            missing = [l for l in range(1, upto + 1) if l not in self.answers[pid]]
            if missing:
                ok = False
                violations.append(f"termination: p{pid} missing instances {missing}")
        return last_common, ok


class EcMonitor(ConsensusMonitor):
    """The EC fold; see the module docstring. Its ``answers`` map each
    instance to a correct process's first decision and the decision time."""

    tags = ("decide",)

    def _answer(self, t: Time, pid: ProcessId, tag: str, instance: int, value: Any) -> None:
        self.answers[pid].setdefault(instance, (value, t))

    def report(self) -> EcReport:
        """The verdicts on the outputs folded so far."""
        correct, decisions = self.correct, self.answers
        violations = [
            f"integrity: p{pid} decided twice in {self.repeated[pid]}"
            for pid in correct
            if self.repeated[pid]
        ]
        last_common, termination_ok = self._termination(violations)
        validity_ok = True
        for pid in correct:
            for instance, (value, __) in sorted(decisions[pid].items()):
                if repr(value) not in self.proposals.get(instance, set()):
                    validity_ok = False
                    violations.append(
                        f"validity: p{pid} decided {value!r} in instance {instance}, "
                        "which was never proposed"
                    )
        # Agreement on [k, L] needs every correct process's decision in
        # each instance of it: an instance one of them skipped ends it.
        agreement_index = last_common + 1
        for k in range(last_common, 0, -1):
            if any(k not in decisions[pid] for pid in correct):
                break
            if len({repr(decisions[pid][k][0]) for pid in correct}) > 1:
                break
            agreement_index = k
        agreement_time: Time | None = None
        if agreement_index <= last_common:
            agreement_time = max(decisions[pid][agreement_index][1] for pid in correct)
        return EcReport(
            termination_ok=termination_ok,
            integrity_ok=not any(self.repeated.values()),
            validity_ok=validity_ok,
            agreement_index=agreement_index,
            last_common_instance=last_common,
            agreement_time=agreement_time,
            violations=violations,
        )


def check_ec(
    run: RunRecord,
    *,
    correct: Iterable[ProcessId] | None = None,
    expected_instances: int | None = None,
) -> EcReport:
    """Check the EC properties of a run; see the module docstring."""
    monitor = EcMonitor(
        run.correct if correct is None else correct,
        expected_instances=expected_instances,
    )
    return monitor.replay(run).report()
