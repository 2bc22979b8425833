"""Declarative simulation runs (``repro.sim.replay``).

Every run in this repository is pure in its configuration: scheduling
permutations are counter-based in ``(seed, block)``
(:meth:`~repro.sim.scheduler.Simulation._permutation_for_block`), environment
draws are counter-based in ``(seed, link, t)`` (:mod:`repro.sim.envs`), and
detector histories are pure in ``(pattern, seed, pid, t)``. A run is therefore
fixed by a small description of plain values — the paper's failure pattern,
detector history, input schedule and links — and this module is the one
place that turns such a description into a simulation:

- :class:`RunSpec` — the picklable, hashable description of one run: size,
  crashes, inputs, seed, the protocol (a name in :mod:`repro.protocols`
  plus its arguments), Ω's stabilization, the links, scheduling and the
  engine/kernel/record selection;
- :func:`build_simulation` / :func:`run_plan` — turn a spec into a
  :class:`~repro.sim.scheduler.Simulation` (and run it to its duration).
  Experiments, falsify targets, witnesses and the tests all build
  through it;
- :func:`run_digest` — a stable 63-bit digest of a finished run's observable
  outcome (output history, traffic counters, end time), identical across
  kernels, engines, worker processes, and interpreter runs — the equality
  witness replay is checked against;
- :func:`replay_simulation` — rebuild the exact simulation of a falsifier
  witness from ``(experiment, axes, keys)`` (delegates to the target
  registry in :mod:`repro.search.targets`).

The protocol registry and the detectors sit above the sim layer, so
:func:`build_simulation` and :func:`replay_simulation` import them when
called: the sim layer keeps no upward dependency at import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.sim.envs import DelayModel, FixedDelay
from repro.sim.failures import FailurePattern
from repro.sim.kernel import DEFAULT_KERNEL
from repro.sim.types import ProcessId, Time, stable_hash

__all__ = [
    "RunSpec",
    "build_simulation",
    "replay_simulation",
    "run_digest",
    "run_plan",
]


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, as plain values.

    A spec pickles, hashes and compares by value. Change one knob of an
    otherwise identical run with :func:`dataclasses.replace` (for instance
    ``replace(spec, kernel="packed")``).

    The detector is derived, not listed: Ω stabilizing at ``tau`` (``None``,
    the default: no detector at all), composed with whatever else the
    protocol's registry entry reads — Σ for Σ-quorum consensus, ◇S for
    Chandra–Toueg — each stabilizing at ``tau`` too. ``links`` is a delay
    model of :mod:`repro.sim.envs`; those are frozen values that carry their
    own seed, so a run may draw its links apart from its schedule, and a
    registered environment enters as ``make_env(name, ...).delay``.
    """

    n: int
    duration: Time
    #: a name in :data:`repro.protocols.PROTOCOLS`; ``None`` when the caller
    #: hands :func:`build_simulation` its own processes.
    protocol: str | None = None
    #: keyword arguments of the protocol, as sorted ``(name, value)`` pairs.
    protocol_args: tuple[tuple[str, Any], ...] = ()
    crashes: tuple[tuple[ProcessId, Time], ...] = ()
    #: application inputs, in insertion order: ``(pid, time, value)``.
    inputs: tuple[tuple[ProcessId, Time, Any], ...] = ()
    seed: int = 0
    tau: Time | None = None
    pre: str = "rotate"
    leader: ProcessId | None = None
    links: DelayModel = FixedDelay(1)
    timeout_interval: int | tuple[int, ...] = 8
    scheduling: str = "round_robin"
    message_batch: int = 1
    engine: str = "event"
    kernel: str = DEFAULT_KERNEL
    record: str = "outputs"

    def failure_pattern(self) -> FailurePattern:
        """The spec's crash map as a :class:`FailurePattern`."""
        return FailurePattern.crash(self.n, dict(self.crashes))


def build_simulation(
    spec: RunSpec,
    *,
    processes: Sequence[Any] | None = None,
    detector: Any = None,
    observers: Sequence[Any] = (),
):
    """Build the :class:`~repro.sim.scheduler.Simulation` a spec describes.

    The object arguments stand in for the spec's own values where a caller
    brings code: ``processes`` for the registered protocol, ``detector``
    for the derived history. Without ``detector`` the history is the one
    the spec derives, so processes run with no detector unless the spec
    sets ``tau``.
    """
    from repro.protocols import protocol_detector, protocol_processes
    from repro.sim.scheduler import Simulation

    timeout = spec.timeout_interval
    sim = Simulation(
        list(protocol_processes(spec) if processes is None else processes),
        failure_pattern=spec.failure_pattern(),
        detector=protocol_detector(spec) if detector is None else detector,
        delay_model=spec.links,
        timeout_interval=list(timeout) if isinstance(timeout, tuple) else timeout,
        seed=spec.seed,
        scheduling=spec.scheduling,
        message_batch=spec.message_batch,
        engine=spec.engine,
        kernel=spec.kernel,
        record=spec.record,
        observers=observers,
    )
    for pid, t, value in spec.inputs:
        sim.add_input(pid, t, value)
    return sim


def run_plan(spec: RunSpec):
    """Build the spec's simulation and run it to ``spec.duration``."""
    sim = build_simulation(spec)
    sim.run_until(spec.duration)
    return sim


def run_digest(sim) -> int:
    """A stable digest of a finished run's observable outcome.

    Folds the quantities every kernel and engine must agree on — the
    pinned byte-equality surface: process count, final clock, the run's end
    time, total traffic counters, and the full output history (what each
    process emitted, when). Pure across interpreter runs and worker
    processes via :func:`~repro.sim.types.stable_hash`, so a witness can
    carry it as a cross-machine equality check.
    """
    run = sim.run
    outputs = sorted(
        (pid, tuple(events)) for pid, events in run.output_history.items()
    )
    return stable_hash(
        "run-digest",
        sim.n,
        sim.time,
        run.end_time,
        sim.network.sent_count,
        sim.network.delivered_count,
        outputs,
    )


def replay_simulation(
    experiment: str,
    axes: dict | None = None,
    *,
    keys: dict,
    kernel: str = DEFAULT_KERNEL,
):
    """Rebuild (and run) the exact simulation behind a falsifier witness.

    ``experiment`` names a registered falsify target's experiment (e.g.
    ``"EXP-4"``), ``axes`` its fixed scenario identity, and ``keys`` the
    witness's search point — scheduler seed, environment parameters, crash
    pattern. Returns the finished :class:`~repro.sim.scheduler.Simulation`;
    :func:`run_digest` of it must match the witness's pinned digest on any
    kernel. Delegates to :mod:`repro.search.targets`.
    """
    from repro.search.targets import rebuild_simulation

    return rebuild_simulation(experiment, axes or {}, keys, kernel=kernel)
