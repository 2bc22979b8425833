"""A fluent builder for simulation scenarios.

Every experiment in this repository sets up the same ingredients: a failure
pattern, a detector history, a delay model, a protocol stack per process, and
a schedule of inputs. :class:`Scenario` packages that recipe behind a
chainable API so downstream users (the README, the tests) do not have to
re-plumb the simulator:

    from repro.scenario import Scenario

    sim = (
        Scenario(n=5, seed=7)
        .crash(4, at=300)
        .omega(tau=250, pre="rotate")
        .fixed_delays(3)
        .etob()
        .broadcast(0, 20, "hello")
        .broadcast(1, 60, "world")
        .run(1000)
    )

Protocol shortcuts (``etob``, ``ec``, ``eic``, ``strong_tob``) name entries
of the protocol registry (:mod:`repro.protocols`); ``stack(factory)`` and
``replicated(machine)`` take code instead. The chain describes a
:class:`~repro.sim.replay.RunSpec` (:meth:`Scenario.spec`), and
:func:`~repro.sim.replay.build_simulation` builds it, as it builds every
experiment and falsifier run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Sequence

from repro.core import EtobLayer
from repro.replication import CommittedPrefixLayer, ReplicaLayer, StateMachine
from repro.sim import (
    AgeGstDist,
    FixedDelay,
    Process,
    ProtocolStack,
    RunSpec,
    SimObserver,
    Simulation,
    UniformDist,
    build_simulation,
)
from repro.sim.errors import ConfigurationError
from repro.sim.envs import DelayModel
from repro.sim.types import ProcessId, Time


class Scenario:
    """Chainable configuration for one simulation: a builder of a
    :class:`~repro.sim.replay.RunSpec`."""

    def __init__(self, n: int, *, seed: int = 0) -> None:
        if n < 1:
            raise ConfigurationError("need at least one process")
        self.n = n
        self.seed = seed
        # Where the scenario's defaults differ from RunSpec's: 2-tick links
        # and every step recorded (as in RunSpec, no detector until omega()).
        self._spec = RunSpec(
            n=n, duration=0, seed=seed, links=FixedDelay(2), record="full"
        )
        self._crashes: dict[ProcessId, Time] = {}
        self._inputs: list[tuple[ProcessId, Time, Any]] = []
        self._factory: Callable[[], Process] | None = None
        self._detector_history: Any = None
        self._observers: list[SimObserver] = []

    def _set(self, **fields: Any) -> "Scenario":
        self._spec = replace(self._spec, **fields)
        return self

    # -- failures -----------------------------------------------------------------

    def crash(self, pid: ProcessId, *, at: Time) -> "Scenario":
        """Crash ``pid`` at time ``at``."""
        self._crashes[pid] = at
        return self

    def crash_majority(self, *, at: Time) -> "Scenario":
        """Crash the first ⌊n/2⌋+1 processes (a strict majority) at ``at``.

        ``⌊n/2⌋+1`` is the smallest strict majority for both parities of
        ``n`` (3 of 5, but also 3 of 4) — the regime where majority-quorum
        protocols lose liveness while Omega-only ETOB stays available.
        """
        for pid in range(self.n // 2 + 1):
            self._crashes[pid] = at
        return self

    # -- detectors -----------------------------------------------------------------

    def omega(
        self,
        *,
        tau: Time = 0,
        leader: ProcessId | None = None,
        pre: str = "rotate",
    ) -> "Scenario":
        """Attach an Omega oracle stabilizing at ``tau``; a protocol that
        reads Sigma (``strong_tob(quorum="sigma")``) gets Omega + Sigma, in
        either chaining order."""
        return self._set(tau=tau, leader=leader, pre=pre)

    def detector(self, history: Any) -> "Scenario":
        """Attach an explicit detector history (anything with ``query``)."""
        self._detector_history = history
        return self

    # -- network --------------------------------------------------------------------

    def fixed_delays(self, ticks: int) -> "Scenario":
        return self._set(links=FixedDelay(ticks))

    def random_delays(self, lo: int, hi: int) -> "Scenario":
        return self._set(links=UniformDist(lo, hi, seed=self.seed))

    def gst_delays(self, *, gst: Time, pre_max: int = 50, post: int = 2) -> "Scenario":
        return self._set(
            links=AgeGstDist(gst=gst, pre_max=pre_max, post_delay=post, seed=self.seed)
        )

    def delay_model(self, model: DelayModel) -> "Scenario":
        return self._set(links=model)

    # -- scheduling ------------------------------------------------------------------

    def timeout_interval(self, interval: int | Sequence[int]) -> "Scenario":
        return self._set(
            timeout_interval=interval if isinstance(interval, int) else tuple(interval)
        )

    def message_batch(self, batch: int) -> "Scenario":
        return self._set(message_batch=batch)

    def random_scheduling(self) -> "Scenario":
        return self._set(scheduling="random")

    # -- engine / recording ----------------------------------------------------

    def engine(self, engine: str) -> "Scenario":
        """Select the stepping engine: ``"event"`` (default) or ``"naive"``."""
        return self._set(engine=engine)

    def kernel(self, kernel: str) -> "Scenario":
        """Select the data plane: one of ``repro.sim.KERNELS``. The default
        is ``repro.sim.DEFAULT_KERNEL`` — ``"compiled-loop"`` when the C
        extension loaded, else ``"packed"``; ``"compiled-loop"`` raises
        without it (see :mod:`repro.sim.kernel`)."""
        return self._set(kernel=kernel)

    def record(self, level: str) -> "Scenario":
        """Select recording fidelity: ``full`` | ``outputs`` | ``metrics`` | ``none``."""
        return self._set(record=level)

    def observe(self, observer: SimObserver) -> "Scenario":
        """Attach an additional simulation observer."""
        self._observers.append(observer)
        return self

    # -- protocols ----------------------------------------------------------------------

    def _protocol(self, name: str, **args: Any) -> "Scenario":
        self._factory = None
        return self._set(protocol=name, protocol_args=tuple(sorted(args.items())))

    def stack(self, factory: Callable[[], Process]) -> "Scenario":
        """Use an arbitrary process factory."""
        self._factory = factory
        return self._set(protocol=None, protocol_args=())

    def etob(self) -> "Scenario":
        """Algorithm 5 at every process."""
        return self._protocol("etob")

    def ec(self, *, instances: int | None = 10) -> "Scenario":
        """Algorithm 4 plus the standard driver."""
        return self._protocol("ec", instances=instances)

    def eic(self, *, instances: int | None = 10) -> "Scenario":
        """The native EIC implementation plus its driver."""
        return self._protocol("eic", instances=instances)

    def strong_tob(self, *, quorum: str = "majority") -> "Scenario":
        """The consensus-based strong TOB baseline (``quorum="sigma"``
        reads Omega + Sigma)."""
        return self._protocol("tob-consensus", quorum_mode=quorum)

    def replicated(
        self, machine_factory: Callable[[], StateMachine], *, commit: bool = False
    ) -> "Scenario":
        """An eventually consistent replicated service over Algorithm 5."""

        def build() -> Process:
            layers = [EtobLayer()]
            if commit:
                layers.append(CommittedPrefixLayer())
            layers.append(ReplicaLayer(machine_factory()))
            return ProtocolStack(layers)

        return self.stack(build)

    # -- inputs --------------------------------------------------------------------------

    def broadcast(self, pid: ProcessId, t: Time, payload: Any) -> "Scenario":
        self._inputs.append((pid, t, ("broadcast", payload)))
        return self

    def invoke(self, pid: ProcessId, t: Time, command: tuple) -> "Scenario":
        self._inputs.append((pid, t, ("invoke", command)))
        return self

    # -- build / run -----------------------------------------------------------------------

    def spec(self, duration: Time = 0) -> RunSpec:
        """The run this scenario describes, up to ``duration``."""
        return replace(
            self._spec,
            duration=duration,
            crashes=tuple(sorted(self._crashes.items())),
            inputs=tuple(self._inputs),
        )

    def build(self) -> Simulation:
        """Construct the simulation (without running it)."""
        if self._factory is None and self._spec.protocol is None:
            raise ConfigurationError(
                "no protocol configured: call etob()/ec()/... or stack(factory)"
            )
        return build_simulation(
            self.spec(),
            processes=(
                None
                if self._factory is None
                else [self._factory() for _ in range(self.n)]
            ),
            detector=self._detector_history,
            observers=tuple(self._observers),
        )

    def run(self, until: Time) -> Simulation:
        """Construct and run until ``until``; returns the simulation."""
        sim = self.build()
        sim.run_until(until)
        return sim
