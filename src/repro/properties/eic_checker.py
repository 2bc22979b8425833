"""Checker for the EIC specification (paper, Appendix A).

Consumes runs recording ``("propose", l, v)``, ``("decide", l, v)`` (first
responses) and ``("revise", l, v)`` (subsequent responses) — the convention of
:class:`~repro.core.drivers.EicDriverLayer`:

- EIC-Termination: every correct process responded to instances ``1..L``;
- EIC-Integrity: discovers the smallest ``k`` such that no instance ``>= k``
  was responded to more than once;
- EIC-Agreement: the *final* responses of correct processes agree on every
  instance in ``1..L`` (the finite-run reading of "no two processes return
  infinitely different values");
- EIC-Validity: every response (initial or revision) was a proposed value.

One fold, :class:`EicMonitor`, checks all of it, live or by replay
(``check_eic``), from the outputs alone, with each process's responses in
the order it emitted them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.properties.ec_checker import ConsensusMonitor
from repro.sim.runs import RunRecord
from repro.sim.types import ProcessId, Time


@dataclass
class EicReport:
    """Outcome of an EIC specification check."""

    termination_ok: bool
    agreement_ok: bool
    validity_ok: bool
    #: smallest k such that instances >= k saw exactly one response per process.
    integrity_index: int
    #: largest instance all correct processes responded to.
    last_common_instance: int
    #: total number of revisions across correct processes.
    total_revisions: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.termination_ok
            and self.agreement_ok
            and self.validity_ok
            and self.integrity_index <= self.last_common_instance + 1
        )


class EicMonitor(ConsensusMonitor):
    """The EIC fold; see the module docstring. Its ``answers`` map each
    instance to a correct process's responses, in the order emitted."""

    tags = ("decide", "revise")
    total_revisions = 0

    def _answer(self, t: Time, pid: ProcessId, tag: str, instance: int, value: Any) -> None:
        self.answers[pid].setdefault(instance, []).append(value)
        self.total_revisions += tag == "revise"

    def report(self) -> EicReport:
        """The verdicts on the outputs folded so far."""
        correct, responses = self.correct, self.answers
        violations: list[str] = []
        last_common, termination_ok = self._termination(violations)

        # Integrity index: smallest k such that every instance >= k got
        # exactly one response at every correct process.
        integrity_index = max(
            [1] + [instance + 1 for pid in correct for instance in self.repeated[pid]]
        )

        # An instance some correct process skipped is a termination
        # violation (reported above); agreement compares the others.
        agreement_ok = True
        for instance in range(1, last_common + 1):
            if any(instance not in responses[pid] for pid in correct):
                continue
            finals = {repr(responses[pid][instance][-1]) for pid in correct}
            if len(finals) > 1:
                agreement_ok = False
                violations.append(
                    f"agreement: final responses for instance {instance} differ"
                )

        validity_ok = True
        for pid in correct:
            for instance, values in responses[pid].items():
                allowed = self.proposals.get(instance, set())
                for value in values:
                    if repr(value) not in allowed:
                        validity_ok = False
                        violations.append(
                            f"validity: p{pid} responded {value!r} to instance "
                            f"{instance}, never proposed"
                        )

        return EicReport(
            termination_ok=termination_ok,
            agreement_ok=agreement_ok,
            validity_ok=validity_ok,
            integrity_index=integrity_index,
            last_common_instance=last_common,
            total_revisions=self.total_revisions,
            violations=violations,
        )


def check_eic(
    run: RunRecord,
    *,
    correct: Iterable[ProcessId] | None = None,
    expected_instances: int | None = None,
) -> EicReport:
    """Check the EIC properties of a run; see the module docstring."""
    monitor = EicMonitor(
        run.correct if correct is None else correct,
        expected_instances=expected_instances,
    )
    return monitor.replay(run).report()
