"""A fluent builder for simulation scenarios.

Every experiment in this repository sets up the same ingredients: a failure
pattern, a detector history, a delay model, a protocol stack per process, and
a schedule of inputs. :class:`Scenario` packages that recipe behind a
chainable API so downstream users (and the examples) do not have to re-plumb
the simulator:

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

Protocol shortcuts cover the paper's stacks (`etob`, `ec`, `eic`,
`strong_tob`, `replicated`); ``stack(factory)`` accepts anything else.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.consensus import PaxosConsensusLayer, TobFromConsensusLayer
from repro.core import (
    EcDriverLayer,
    EcUsingOmegaLayer,
    EicDriverLayer,
    EicUsingOmegaLayer,
    EtobLayer,
)
from repro.core.drivers import ProposalFn, distinct_proposals
from repro.detectors import CompositeDetector, OmegaDetector, SigmaDetector
from repro.replication import CommittedPrefixLayer, ReplicaLayer, StateMachine
from repro.sim import (
    FailurePattern,
    FixedDelay,
    GstDelay,
    Process,
    ProtocolStack,
    SimObserver,
    Simulation,
    UniformRandomDelay,
)
from repro.sim.errors import ConfigurationError
from repro.sim.kernel import DEFAULT_KERNEL
from repro.sim.network import DelayModel
from repro.sim.types import ProcessId, Time


class Scenario:
    """Chainable configuration for one simulation."""

    def __init__(self, n: int, *, seed: int = 0) -> None:
        if n < 1:
            raise ConfigurationError("need at least one process")
        self.n = n
        self.seed = seed
        self._crashes: dict[ProcessId, Time] = {}
        self._detector_config: dict[str, Any] | None = None
        self._detector_history: Any = None
        self._delay_model: DelayModel | None = None
        self._timeout: int | Sequence[int] = 8
        self._message_batch = 1
        self._scheduling = "round_robin"
        self._factory: Callable[[], Process] | None = None
        self._inputs: list[tuple[ProcessId, Time, Any]] = []
        self._quorum_mode = "majority"
        self._engine = "event"
        self._kernel = DEFAULT_KERNEL
        self._record = "full"
        self._observers: list[SimObserver] = []

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
        """Attach an Omega oracle stabilizing at ``tau``."""
        self._detector_config = {
            "kind": "omega",
            "tau": tau,
            "leader": leader,
            "pre": pre,
        }
        return self

    def omega_sigma(self, *, tau: Time = 0, pre: str = "rotate") -> "Scenario":
        """Attach a composite Omega + Sigma oracle."""
        self._detector_config = {"kind": "omega+sigma", "tau": tau, "pre": pre}
        return self

    def detector(self, history: Any) -> "Scenario":
        """Attach an explicit detector history (anything with ``query``)."""
        self._detector_history = history
        return self

    # -- network --------------------------------------------------------------------

    def fixed_delays(self, ticks: int) -> "Scenario":
        self._delay_model = FixedDelay(ticks)
        return self

    def random_delays(self, lo: int, hi: int) -> "Scenario":
        self._delay_model = UniformRandomDelay(lo, hi, seed=self.seed)
        return self

    def gst_delays(self, *, gst: Time, pre_max: int = 50, post: int = 2) -> "Scenario":
        self._delay_model = GstDelay(
            gst=gst, pre_max=pre_max, post_delay=post, seed=self.seed
        )
        return self

    def delay_model(self, model: DelayModel) -> "Scenario":
        self._delay_model = model
        return self

    # -- scheduling ------------------------------------------------------------------

    def timeout_interval(self, interval: int | Sequence[int]) -> "Scenario":
        self._timeout = interval
        return self

    def message_batch(self, batch: int) -> "Scenario":
        self._message_batch = batch
        return self

    def random_scheduling(self) -> "Scenario":
        self._scheduling = "random"
        return self

    # -- engine / recording ----------------------------------------------------

    def engine(self, engine: str) -> "Scenario":
        """Select the stepping engine: ``"event"`` (default) or ``"naive"``."""
        self._engine = engine
        return self

    def kernel(self, kernel: str) -> "Scenario":
        """Select the data plane: one of ``repro.sim.KERNELS``. The default
        is ``repro.sim.DEFAULT_KERNEL`` — ``"compiled-loop"`` when the C
        extension loaded, else ``"packed"``; the compiled rungs raise
        without it (see :mod:`repro.sim.kernel`)."""
        self._kernel = kernel
        return self

    def record(self, level: str) -> "Scenario":
        """Select recording fidelity: ``full`` | ``outputs`` | ``metrics`` | ``none``."""
        self._record = level
        return self

    def observe(self, observer: SimObserver) -> "Scenario":
        """Attach an additional simulation observer."""
        self._observers.append(observer)
        return self

    # -- protocols ----------------------------------------------------------------------

    def stack(self, factory: Callable[[], Process]) -> "Scenario":
        """Use an arbitrary process factory."""
        self._factory = factory
        # Selecting a stack discards any sigma-quorum request from an earlier
        # strong_tob(): the detector upgrade belongs to that stack alone.
        self._quorum_mode = "majority"
        return self

    def etob(self) -> "Scenario":
        """Algorithm 5 at every process."""
        return self.stack(lambda: ProtocolStack([EtobLayer()]))

    def ec(
        self,
        *,
        instances: int | None = 10,
        proposals: ProposalFn = distinct_proposals,
    ) -> "Scenario":
        """Algorithm 4 plus the standard driver."""
        return self.stack(
            lambda: ProtocolStack(
                [
                    EcUsingOmegaLayer(),
                    EcDriverLayer(proposals, max_instances=instances),
                ]
            )
        )

    def eic(
        self,
        *,
        instances: int | None = 10,
        proposals: ProposalFn = distinct_proposals,
    ) -> "Scenario":
        """The native EIC implementation plus its driver."""
        return self.stack(
            lambda: ProtocolStack(
                [
                    EicUsingOmegaLayer(),
                    EicDriverLayer(proposals, max_instances=instances),
                ]
            )
        )

    def strong_tob(self, *, quorum: str = "majority") -> "Scenario":
        """The consensus-based strong TOB baseline.

        With ``quorum="sigma"`` the detector is upgraded to Omega + Sigma at
        :meth:`build` time, so ``strong_tob()`` and ``omega()`` may be chained
        in either order.
        """
        self.stack(
            lambda: ProtocolStack(
                [PaxosConsensusLayer(quorum_mode=quorum), TobFromConsensusLayer()]
            )
        )
        self._quorum_mode = quorum
        return self

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

    def input(self, pid: ProcessId, t: Time, value: Any) -> "Scenario":
        self._inputs.append((pid, t, value))
        return self

    # -- build / run -----------------------------------------------------------------------

    def _build_detector(self, pattern: FailurePattern):
        if self._detector_history is not None:
            return self._detector_history
        config = self._detector_config
        if config is None:
            return None
        if self._quorum_mode == "sigma" and config["kind"] == "omega":
            # Sigma-quorum consensus needs the composite oracle; resolve the
            # upgrade here so omega()/strong_tob() chaining order is irrelevant.
            config = {**config, "kind": "omega+sigma"}
        omega = OmegaDetector(
            stabilization_time=config["tau"],
            leader=config.get("leader"),
            pre_behavior=config["pre"],
        )
        if config["kind"] == "omega+sigma":
            return CompositeDetector(
                {
                    "omega": omega,
                    "sigma": SigmaDetector(stabilization_time=config["tau"]),
                }
            ).history(pattern, seed=self.seed)
        return omega.history(pattern, seed=self.seed)

    def build(self) -> Simulation:
        """Construct the simulation (without running it)."""
        if self._factory is None:
            raise ConfigurationError(
                "no protocol configured: call etob()/ec()/... or stack(factory)"
            )
        pattern = FailurePattern.crash(self.n, self._crashes)
        sim = Simulation(
            [self._factory() for _ in range(self.n)],
            failure_pattern=pattern,
            detector=self._build_detector(pattern),
            delay_model=self._delay_model or FixedDelay(2),
            timeout_interval=self._timeout,
            seed=self.seed,
            scheduling=self._scheduling,
            message_batch=self._message_batch,
            engine=self._engine,
            kernel=self._kernel,
            record=self._record,
            observers=tuple(self._observers),
        )
        for pid, t, value in self._inputs:
            sim.add_input(pid, t, value)
        return sim

    def run(self, until: Time) -> Simulation:
        """Construct and run until ``until``; returns the simulation."""
        sim = self.build()
        sim.run_until(until)
        return sim
