"""Human-readable rendering of run records and live traces.

Debugging distributed runs from raw step lists is miserable; these helpers
print compact per-process timelines of the events that matter (broadcasts,
delivered-sequence changes, decisions, leader changes) and side-by-side
sequence comparisons. Used by examples and by humans in anger.

Two entry points produce the same timeline text:

- :func:`timeline` renders after the fact from a :class:`RunRecord` (needs
  ``record="full"`` or ``"outputs"``);
- :class:`TimelineObserver` collects the events live through the scheduler's
  observer protocol, so traces stay available even at ``record="metrics"``
  or ``"none"`` — the trace costs O(interesting events), not O(run length).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.sim.observers import SimObserver
from repro.sim.runs import RunRecord, StepRecord
from repro.sim.types import ProcessId, Time

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.scheduler import Simulation

#: tags rendered by default, with a short label each.
DEFAULT_TAGS = {
    "broadcast-uid": "cast",
    "deliver": "d",
    "decide": "dec",
    "revise": "rev",
    "omega": "omega",
    "leader": "ldr",
    "committed": "commit",
    "response": "resp",
}


def _summarize(tag: str, payload: tuple) -> str:
    if tag == "deliver":
        (sequence,) = payload
        return f"|d|={len(sequence)}"
    if tag == "broadcast-uid":
        uid, __ = payload
        return f"{uid}"
    if tag in ("decide", "revise"):
        instance, value = payload
        return f"[{instance}]={value!r}"
    if tag in ("omega", "leader"):
        (leader,) = payload
        return f"p{leader}"
    if tag == "committed":
        (length,) = payload
        return f"len={length}"
    if tag == "response":
        cmd_id, result = payload
        return f"{cmd_id}->{result!r}"
    return repr(payload)


def _render_events(
    events: list[tuple[Time, ProcessId, str, str]], horizon: Time
) -> str:
    """The shared line format: ``t=...  p<k>  <label> <summary>``."""
    events = sorted(events, key=lambda e: (e[0], e[1]))
    width = len(str(horizon))
    lines = [
        f"t={t:>{width}}  p{pid}  {label:>6} {summary}".rstrip()
        for t, pid, label, summary in events
    ]
    return "\n".join(lines)


def timeline(
    run: RunRecord,
    *,
    pids: list[ProcessId] | None = None,
    tags: dict[str, str] | None = None,
    start: Time = 0,
    end: Time | None = None,
) -> str:
    """A merged, time-ordered event log across processes.

    One line per event: ``t=...  p<k>  <label> <summary>``. Crashed processes
    are annotated at their crash time.
    """
    tags = tags if tags is not None else DEFAULT_TAGS
    selected = pids if pids is not None else list(range(run.n))
    horizon = end if end is not None else run.end_time
    events: list[tuple[Time, ProcessId, str, str]] = []
    for pid in selected:
        for tag, label in tags.items():
            for t, payload in run.tagged_outputs(pid, tag):
                if start <= t <= horizon:
                    events.append((t, pid, label, _summarize(tag, payload)))
        crash_at = run.failure_pattern.crash_time(pid)
        if crash_at is not None and start <= crash_at <= horizon:
            events.append((crash_at, pid, "CRASH", ""))
    return _render_events(events, horizon)


class TimelineObserver(SimObserver):
    """Collects timeline events live, independent of the recording fidelity.

    Attach via ``Simulation(observers=[...])`` or ``Scenario.observe(...)``;
    after (or during) the run, :meth:`render` yields the same text
    :func:`timeline` would produce from a full run record.
    """

    def __init__(
        self,
        *,
        tags: dict[str, str] | None = None,
        pids: list[ProcessId] | None = None,
    ) -> None:
        self.tags = tags if tags is not None else DEFAULT_TAGS
        self.pids = pids
        self.events: list[tuple[Time, ProcessId, str, str]] = []
        self._last_tick: Time = 0

    def on_step(self, sim: "Simulation", record: StepRecord) -> None:
        if record.time > self._last_tick:
            self._last_tick = record.time
        if not record.outputs:
            return
        self._collect(record)

    def on_idle_step(self, sim, index, t, pid, fd_value) -> None:
        # Idle ticks never carry outputs; only the horizon moves. Overriding
        # the fast path keeps a forced-materialization run (e.g. mixed with
        # full recording) from building a record per skipped tick here too.
        if t > self._last_tick:
            self._last_tick = t

    def on_finish(self, sim: "Simulation") -> None:
        # At reduced fidelity on_step only sees interesting steps; extend the
        # horizon to the run's true last live tick so crash annotations past
        # the last event are not dropped.
        if sim.last_live_tick > self._last_tick:
            self._last_tick = sim.last_live_tick

    def _collect(self, record: StepRecord) -> None:
        if self.pids is not None and record.pid not in self.pids:
            return
        for value in record.outputs:
            if isinstance(value, tuple) and value and value[0] in self.tags:
                tag = value[0]
                self.events.append(
                    (
                        record.time,
                        record.pid,
                        self.tags[tag],
                        _summarize(tag, tuple(value[1:])),
                    )
                )

    def render(self, *, failure_pattern: Any = None) -> str:
        """The merged timeline text (optionally annotating crash times)."""
        events = list(self.events)
        horizon = self._last_tick
        if failure_pattern is not None:
            selected = (
                self.pids if self.pids is not None else range(failure_pattern.n)
            )
            for pid in selected:
                crash_at = failure_pattern.crash_time(pid)
                if crash_at is not None and crash_at <= horizon:
                    events.append((crash_at, pid, "CRASH", ""))
        return _render_events(events, horizon)


def sequence_comparison(
    run: RunRecord,
    *,
    at: Time | None = None,
    payload_of: Callable[[Any], Any] = lambda m: m.payload,
) -> str:
    """Side-by-side delivered sequences of all processes at time ``at``.

    Marks the longest common prefix; a ``!`` column flags the first position
    where some process disagrees — the visual form of a divergence.
    """
    from repro.properties.delivery import extract_timeline

    tl = extract_timeline(run)
    when = at if at is not None else run.end_time
    sequences = {
        pid: [payload_of(m) for m in tl.sequence_at(pid, when)]
        for pid in range(run.n)
    }
    longest = max((len(s) for s in sequences.values()), default=0)
    agree_until = 0
    for i in range(longest):
        values = {
            repr(s[i]) for s in sequences.values() if i < len(s)
        }
        if len(values) > 1:
            break
        if all(i < len(s) for s in sequences.values()):
            agree_until = i + 1
    lines = [f"delivered sequences at t={when} (common prefix: {agree_until}):"]
    for pid in sorted(sequences):
        cells = []
        for i, item in enumerate(sequences[pid]):
            marker = "" if i < agree_until else "!"
            cells.append(f"{marker}{item}")
        lines.append(f"  p{pid}: " + " | ".join(cells))
    return "\n".join(lines)


def decision_table(run: RunRecord, *, tag: str = "decide") -> str:
    """Decisions per instance per process, as a compact grid."""
    instances: set = set()
    decisions: dict[ProcessId, dict[Any, Any]] = {}
    for pid in range(run.n):
        per = {}
        for __, (instance, value) in run.tagged_outputs(pid, tag):
            per.setdefault(instance, value)
            instances.add(instance)
        decisions[pid] = per
    ordered = sorted(instances, key=repr)
    lines = ["instance: " + " ".join(str(i) for i in ordered)]
    for pid in sorted(decisions):
        row = [
            repr(decisions[pid].get(instance, "."))
            for instance in ordered
        ]
        lines.append(f"  p{pid}:    " + " ".join(row))
    return "\n".join(lines)
