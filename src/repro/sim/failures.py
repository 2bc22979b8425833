"""Failure patterns and environments (paper, Section 2).

A *failure pattern* is a function ``F: N -> 2^Pi`` giving the set of processes
that have crashed by each time; it is monotone (processes never recover). An
*environment* is a set of failure patterns, i.e. an assumption about when and
where failures may occur.

We represent a failure pattern compactly by the crash time of each faulty
process; processes absent from the map are correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.sim.types import (
    ProcessId,
    Time,
    stable_hash,
    validate_process_id,
    validate_time,
)


@dataclass(frozen=True)
class FailurePattern:
    """When and where crashes happen in one run.

    ``crash_times[p] = t`` means process ``p`` takes no step at any time
    ``>= t`` (it has crashed by time ``t``). Monotonicity of ``F`` is inherent
    to this representation.
    """

    n: int
    crash_times: Mapping[ProcessId, Time] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one process, got n={self.n}")
        for pid, t in self.crash_times.items():
            validate_process_id(pid, self.n)
            validate_time(t)
        # Freeze the mapping so the pattern is genuinely immutable and hashable.
        object.__setattr__(self, "crash_times", dict(self.crash_times))

    # -- constructors ------------------------------------------------------

    @classmethod
    def no_failures(cls, n: int) -> "FailurePattern":
        """The crash-free pattern over ``n`` processes."""
        return cls(n, {})

    @classmethod
    def crash(cls, n: int, crash_times: Mapping[ProcessId, Time]) -> "FailurePattern":
        """Pattern in which each process in ``crash_times`` crashes at its time."""
        return cls(n, dict(crash_times))

    @classmethod
    def crash_all_but(
        cls, n: int, survivors: Iterable[ProcessId], at: Time
    ) -> "FailurePattern":
        """Pattern crashing every process except ``survivors`` at time ``at``."""
        keep = set(survivors)
        return cls(n, {p: at for p in range(n) if p not in keep})

    # -- queries -----------------------------------------------------------

    def crashed(self, pid: ProcessId, t: Time) -> bool:
        """True iff ``pid`` has crashed by time ``t`` (i.e. ``pid in F(t)``)."""
        crash_at = self.crash_times.get(pid)
        return crash_at is not None and t >= crash_at

    def crashed_set(self, t: Time) -> frozenset[ProcessId]:
        """The set ``F(t)`` of processes crashed by time ``t``."""
        return frozenset(p for p, ct in self.crash_times.items() if t >= ct)

    def alive_at(self, t: Time) -> frozenset[ProcessId]:
        """Processes that have not crashed by time ``t``."""
        return frozenset(range(self.n)) - self.crashed_set(t)

    @property
    def faulty(self) -> frozenset[ProcessId]:
        """``faulty(F)``: processes that crash at some time in this pattern."""
        return frozenset(self.crash_times)

    @property
    def correct(self) -> frozenset[ProcessId]:
        """``correct(F)``: processes that never crash in this pattern."""
        return frozenset(range(self.n)) - self.faulty

    @property
    def has_correct_majority(self) -> bool:
        """True iff strictly more than half of the processes are correct."""
        return len(self.correct) > self.n // 2

    def crash_time(self, pid: ProcessId) -> Time | None:
        """The time at which ``pid`` crashes, or None if it is correct."""
        return self.crash_times.get(pid)

    def last_crash_time(self) -> Time:
        """The latest crash time in the pattern (0 if crash-free)."""
        return max(self.crash_times.values(), default=0)

    def describe(self) -> str:
        """Short human-readable summary, e.g. ``n=5 crashes={1@t100, 3@t0}``."""
        if not self.crash_times:
            return f"n={self.n} crash-free"
        crashes = ", ".join(
            f"p{p}@t{t}" for p, t in sorted(self.crash_times.items())
        )
        return f"n={self.n} crashes={{{crashes}}}"


@dataclass(frozen=True)
class ChurnSchedule:
    """Deterministic crash waves, independent of system size.

    ``waves`` is a sequence of ``(at, count)`` entries: at time ``at``,
    ``count`` further processes crash, staggered ``stagger`` ticks apart
    within the wave. :meth:`pattern` renders the schedule over a concrete
    ``n``: victims are drawn in a counter-based order (a pure function of
    the seed via :func:`~repro.sim.types.stable_hash`, so the same schedule
    yields the same pattern on every machine, worker, and rerun), and at
    least ``min_survivors`` processes never crash — waves that would exceed
    the budget are truncated, keeping every rendered pattern admissible.

    Crashes stay permanent (``FailurePattern`` is monotone, as in the
    paper); *recovery* waves are an environment/link phenomenon — see
    :class:`repro.sim.envs.NodeOutage`.
    """

    waves: tuple[tuple[Time, int], ...]
    stagger: Time = 0
    min_survivors: int = 1

    def __post_init__(self) -> None:
        waves = tuple((int(at), int(count)) for at, count in self.waves)
        for at, count in waves:
            validate_time(at)
            if count < 1:
                raise ValueError(f"wave at t={at} must crash >= 1 process")
        if self.stagger < 0:
            raise ValueError(f"stagger must be >= 0, got {self.stagger}")
        if self.min_survivors < 1:
            raise ValueError(
                f"min_survivors must be >= 1, got {self.min_survivors}"
            )
        object.__setattr__(self, "waves", waves)

    @property
    def total_crashes(self) -> int:
        """Crashes the schedule asks for (before the survivor budget)."""
        return sum(count for __, count in self.waves)

    def pattern(self, n: int, seed: int = 0) -> FailurePattern:
        """Render the schedule over ``n`` processes as a failure pattern."""
        if n < 1:
            raise ValueError(f"need at least one process, got n={n}")
        victims = sorted(
            range(n), key=lambda p: (stable_hash("churn-victim", seed, p), p)
        )
        budget = max(0, n - self.min_survivors)
        crash_times: dict[ProcessId, Time] = {}
        cursor = 0
        for at, count in sorted(self.waves):
            for slot in range(count):
                if cursor >= budget:
                    return FailurePattern(n, crash_times)
                crash_times[victims[cursor]] = at + slot * self.stagger
                cursor += 1
        return FailurePattern(n, crash_times)


@dataclass(frozen=True)
class Environment:
    """A named set of failure patterns over ``n`` processes.

    ``contains(pattern)`` decides membership. Factory methods build the
    environments used throughout the paper: the *arbitrary* environment (any
    crashes, at least one correct process), the classical *majority-correct*
    environment, and a few useful special cases.
    """

    name: str
    n: int
    _predicate: Callable[[FailurePattern], bool]

    def contains(self, pattern: FailurePattern) -> bool:
        """True iff ``pattern`` belongs to this environment."""
        if pattern.n != self.n:
            return False
        return self._predicate(pattern)

    # -- standard environments ----------------------------------------------

    @classmethod
    def arbitrary(cls, n: int) -> "Environment":
        """Any failure pattern with at least one correct process.

        This is the paper's "any environment": no assumption on when and where
        failures occur. (Without any correct process neither Omega's property
        nor any liveness property is meaningful, so we keep >= 1 correct.)
        """
        return cls("arbitrary", n, lambda f: len(f.correct) >= 1)

    @classmethod
    def majority_correct(cls, n: int) -> "Environment":
        """Patterns in which a strict majority of processes is correct."""
        return cls("majority-correct", n, lambda f: f.has_correct_majority)

    @classmethod
    def minority_correct(cls, n: int) -> "Environment":
        """Patterns with at least one but at most ``n // 2`` correct processes.

        The interesting regime of the paper: consensus with Omega alone is
        impossible here, yet ETOB remains implementable.
        """
        return cls(
            "minority-correct",
            n,
            lambda f: 1 <= len(f.correct) <= n // 2,
        )

    @classmethod
    def crash_free(cls, n: int) -> "Environment":
        """The single pattern with no failures."""
        return cls("crash-free", n, lambda f: not f.faulty)

    @classmethod
    def at_most_f(cls, n: int, f: int) -> "Environment":
        """Patterns with at most ``f`` faulty processes."""
        if not 0 <= f < n:
            raise ValueError(f"need 0 <= f < n, got f={f}, n={n}")
        return cls(f"at-most-{f}-faulty", n, lambda fp: len(fp.faulty) <= f)
