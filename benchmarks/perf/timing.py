"""Timed repeats and the estimator the metrics are computed from.

Wall-clock on a small shared sandbox is noisy in one direction: interference
only ever adds time, and it comes in bursts of a fraction of a second up to
many seconds. A timed region is therefore cut into segments of identical
work (the same simulated span on every repeat), and every host-time metric
is computed from the *composite* time: for each segment the fastest any
repeat took, summed over the segments. With one segment this is the
fastest of the repeats. README.md records the measured spreads; the median
and quartiles of the whole repeats are printed beside the composite so the
noise stays visible.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Leg:
    """One timed piece of a workload pass.

    ``build`` makes fresh state (untimed, but its duration is recorded);
    ``run(state, lap)`` is the timed region: it calls ``lap()`` at the end
    of each segment and returns a fingerprint of the outcome, which must be
    identical on every repeat. A region that never calls ``lap`` is one
    segment.
    """

    name: str
    build: Callable[[], Any]
    run: Callable[[Any, Callable[[], None]], Any]
    units: int


@dataclass
class LegTimes:
    """Per repeat: the wall and CPU seconds of each segment."""

    wall: list[list[float]] = field(default_factory=list)
    cpu: list[list[float]] = field(default_factory=list)
    build: list[float] = field(default_factory=list)
    fingerprints: list[Any] = field(default_factory=list)


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    """Peak resident set of this process or its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # Linux reports KiB


def time_once(leg: Leg, into: LegTimes) -> None:
    """One repeat: fresh state, a collection, then the timed region."""
    started = time.perf_counter()
    state = leg.build()
    into.build.append(time.perf_counter() - started)
    gc.collect()
    marks = [(time.perf_counter(), cpu_seconds())]

    def lap() -> None:
        marks.append((time.perf_counter(), cpu_seconds()))

    fingerprint = leg.run(state, lap)
    if len(marks) == 1:
        lap()
    into.wall.append([b[0] - a[0] for a, b in zip(marks, marks[1:])])
    into.cpu.append([b[1] - a[1] for a, b in zip(marks, marks[1:])])
    into.fingerprints.append(fingerprint)


def measure(
    legs: list[Leg], seconds: float, *, min_repeats: int, max_repeats: int
) -> dict[str, LegTimes]:
    """Repeat passes (each leg once, in order) for ``seconds`` seconds.

    At least ``min_repeats`` and at most ``max_repeats`` passes are made;
    a pass that has started always finishes.
    """
    times = {leg.name: LegTimes() for leg in legs}
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < max_repeats and (
        passes < min_repeats or time.perf_counter() < deadline
    ):
        for leg in legs:
            time_once(leg, times[leg.name])
        passes += 1
    return times


def repeat(leg: Leg, repeats: int) -> LegTimes:
    """A fixed number of repeats of one leg."""
    times = LegTimes()
    for __ in range(repeats):
        time_once(leg, times)
    return times


def composite(segments: list[list[float]]) -> float:
    """Per segment the fastest any repeat took, summed over the segments."""
    return sum(min(column) for column in zip(*segments, strict=True))


def spread_summary(segments: list[list[float]]) -> dict[str, float]:
    """Composite, and the fastest, median and quartiles of whole repeats."""
    totals = [sum(repeat_) for repeat_ in segments]
    if len(totals) >= 2:
        q1, median, q3 = statistics.quantiles(totals, n=4, method="inclusive")
    else:
        q1 = median = q3 = totals[0]
    return {
        "composite": composite(segments), "fastest": min(totals),
        "q1": q1, "median": median, "q3": q3,
    }


def fastest_per_call(call: Callable[[int], None], calls: int, batches: int = 5) -> float:
    """Seconds per call of ``call(i)``: the fastest of ``batches`` batches,
    net of the empty loop."""
    def batch(body: Callable[[int], None]) -> float:
        best = float("inf")
        for __ in range(batches):
            started = time.perf_counter()
            for i in range(calls):
                body(i)
            best = min(best, time.perf_counter() - started)
        return best

    return max(batch(call) - batch(lambda i: None), 0.0) / calls


class Span:
    """Accumulated wall time and call count of one layer boundary."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0

    def timed(self, call: Callable[..., Any], *args: Any) -> Any:
        """``call(*args)``, its wall time added to this span."""
        started = time.perf_counter()
        value = call(*args)
        self.seconds += time.perf_counter() - started
        self.calls += 1
        return value
