"""Shared scenario builders for the test suite.

These construct the standard simulations the paper's experiments revolve
around: ETOB/EC/EIC stacks under configurable environments, detector
stabilization times and delays. Keeping them here keeps individual tests
focused on the property being asserted.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Sequence

from repro.core import (
    EcDriverLayer,
    EcUsingOmegaLayer,
    EicDriverLayer,
    EicUsingOmegaLayer,
    EtobLayer,
)
from repro.core.causal_graph import LinearizationError
from repro.core.drivers import distinct_proposals
from repro.core.messages import AppMessage, MessageId
from repro.core.transformations import (
    EcToEicLayer,
    EcToEtobLayer,
    EicToEcLayer,
    EtobToEcLayer,
)
from repro.consensus import PaxosConsensusLayer, TobFromConsensusLayer
from repro.detectors import CompositeDetector, OmegaDetector, SigmaDetector
from repro.sim import FailurePattern, FixedDelay, ProtocolStack, Simulation

#: Default broadcast schedule: (pid, time, payload) triples.
Broadcasts = Sequence[tuple[int, int, Any]]


def etob_sim(
    n: int = 4,
    *,
    crashes: dict[int, int] | None = None,
    tau_omega: int = 0,
    pre_behavior: str = "rotate",
    delay: int = 2,
    timeout: int = 4,
    seed: int = 0,
    layer_factory: Callable[[], Any] | None = None,
) -> Simulation:
    """An ETOB (Algorithm 5) simulation ready to receive broadcast inputs."""
    pattern = FailurePattern.crash(n, crashes or {})
    detector = OmegaDetector(
        stabilization_time=tau_omega, pre_behavior=pre_behavior
    ).history(pattern, seed=seed)
    factory = layer_factory or (lambda: ProtocolStack([EtobLayer()]))
    processes = [factory() for _ in range(n)]
    return Simulation(
        processes,
        failure_pattern=pattern,
        detector=detector,
        delay_model=FixedDelay(delay),
        timeout_interval=timeout,
        seed=seed,
    )


def feed_broadcasts(sim: Simulation, broadcasts: Broadcasts) -> None:
    """Schedule broadcast inputs on a simulation."""
    for pid, time, payload in broadcasts:
        sim.add_input(pid, time, ("broadcast", payload))


def ec_sim(
    n: int = 3,
    *,
    crashes: dict[int, int] | None = None,
    tau_omega: int = 0,
    pre_behavior: str = "rotate",
    instances: int = 5,
    delay: int = 2,
    timeout: int = 4,
    seed: int = 0,
    proposal_fn=distinct_proposals,
) -> Simulation:
    """An EC (Algorithm 4) simulation with the standard driver."""
    pattern = FailurePattern.crash(n, crashes or {})
    detector = OmegaDetector(
        stabilization_time=tau_omega, pre_behavior=pre_behavior
    ).history(pattern, seed=seed)
    processes = [
        ProtocolStack(
            [
                EcUsingOmegaLayer(),
                EcDriverLayer(proposal_fn, max_instances=instances),
            ]
        )
        for _ in range(n)
    ]
    return Simulation(
        processes,
        failure_pattern=pattern,
        detector=detector,
        delay_model=FixedDelay(delay),
        timeout_interval=timeout,
        seed=seed,
    )


def eic_sim(
    n: int = 3,
    *,
    crashes: dict[int, int] | None = None,
    tau_omega: int = 0,
    instances: int = 5,
    delay: int = 2,
    timeout: int = 4,
    seed: int = 0,
) -> Simulation:
    """A native EIC simulation with the standard driver."""
    pattern = FailurePattern.crash(n, crashes or {})
    detector = OmegaDetector(stabilization_time=tau_omega).history(
        pattern, seed=seed
    )
    processes = [
        ProtocolStack(
            [EicUsingOmegaLayer(), EicDriverLayer(max_instances=instances)]
        )
        for _ in range(n)
    ]
    return Simulation(
        processes,
        failure_pattern=pattern,
        detector=detector,
        delay_model=FixedDelay(delay),
        timeout_interval=timeout,
        seed=seed,
    )


def ec_to_etob_sim(
    n: int = 3,
    *,
    crashes: dict[int, int] | None = None,
    tau_omega: int = 0,
    delay: int = 2,
    timeout: int = 4,
    seed: int = 0,
) -> Simulation:
    """Algorithm 1 over Algorithm 4: ETOB built from EC."""
    pattern = FailurePattern.crash(n, crashes or {})
    detector = OmegaDetector(stabilization_time=tau_omega).history(
        pattern, seed=seed
    )
    processes = [
        ProtocolStack([EcUsingOmegaLayer(), EcToEtobLayer()]) for _ in range(n)
    ]
    return Simulation(
        processes,
        failure_pattern=pattern,
        detector=detector,
        delay_model=FixedDelay(delay),
        timeout_interval=timeout,
        seed=seed,
    )


def etob_to_ec_sim(
    n: int = 3,
    *,
    crashes: dict[int, int] | None = None,
    tau_omega: int = 0,
    instances: int = 4,
    delay: int = 2,
    timeout: int = 4,
    seed: int = 0,
) -> Simulation:
    """Algorithm 2 over Algorithm 5: EC built from ETOB."""
    pattern = FailurePattern.crash(n, crashes or {})
    detector = OmegaDetector(stabilization_time=tau_omega).history(
        pattern, seed=seed
    )
    processes = [
        ProtocolStack(
            [EtobLayer(), EtobToEcLayer(), EcDriverLayer(max_instances=instances)]
        )
        for _ in range(n)
    ]
    return Simulation(
        processes,
        failure_pattern=pattern,
        detector=detector,
        delay_model=FixedDelay(delay),
        timeout_interval=timeout,
        seed=seed,
    )


def eic_round_trip_sim(
    n: int = 3,
    *,
    tau_omega: int = 0,
    instances: int = 4,
    seed: int = 0,
) -> Simulation:
    """Algorithm 7 over Algorithm 6 over Algorithm 4: EC -> EIC -> EC."""
    pattern = FailurePattern.no_failures(n)
    detector = OmegaDetector(stabilization_time=tau_omega).history(
        pattern, seed=seed
    )
    processes = [
        ProtocolStack(
            [
                EcUsingOmegaLayer(),
                EcToEicLayer(),
                EicToEcLayer(),
                EcDriverLayer(max_instances=instances),
            ]
        )
        for _ in range(n)
    ]
    return Simulation(
        processes,
        failure_pattern=pattern,
        detector=detector,
        delay_model=FixedDelay(2),
        timeout_interval=4,
        seed=seed,
    )


def strong_tob_sim(
    n: int = 5,
    *,
    crashes: dict[int, int] | None = None,
    tau_omega: int = 0,
    quorum_mode: str = "majority",
    delay: int = 2,
    timeout: int = 4,
    seed: int = 0,
) -> Simulation:
    """The strong baseline: TOB over Paxos, majority or Sigma quorums."""
    pattern = FailurePattern.crash(n, crashes or {})
    omega = OmegaDetector(stabilization_time=tau_omega)
    if quorum_mode == "sigma":
        detector = CompositeDetector(
            {"omega": omega, "sigma": SigmaDetector(stabilization_time=tau_omega)}
        ).history(pattern, seed=seed)
    else:
        detector = omega.history(pattern, seed=seed)
    processes = [
        ProtocolStack(
            [PaxosConsensusLayer(quorum_mode=quorum_mode), TobFromConsensusLayer()]
        )
        for _ in range(n)
    ]
    return Simulation(
        processes,
        failure_pattern=pattern,
        detector=detector,
        delay_model=FixedDelay(delay),
        timeout_interval=timeout,
        seed=seed,
    )


class ReferenceCausalGraph:
    """``repro.core.CausalGraph`` as it was before it kept its indexes per
    insertion — every view recomputed from the node dict on every query —
    verbatim. Test-only: the oracle of
    ``tests/test_incremental_differential.py``."""

    def __init__(self, messages: Iterable[AppMessage] = ()) -> None:
        self._nodes: Dict[MessageId, AppMessage] = {}
        for message in messages:
            self.add(message)

    # -- the paper's operations ------------------------------------------------

    def add(self, message: AppMessage) -> None:
        """``UpdateCG``: insert one message whose dependencies are present."""
        missing = [d for d in message.deps if d not in self._nodes]
        if missing:
            raise LinearizationError(
                f"cannot add {message.uid}: missing dependencies {missing}"
            )
        existing = self._nodes.get(message.uid)
        if existing is not None and existing.deps != message.deps:
            raise LinearizationError(
                f"conflicting dependency sets for {message.uid}: "
                f"{sorted(existing.deps)} vs {sorted(message.deps)}"
            )
        self._nodes[message.uid] = message

    def union(self, other: "ReferenceCausalGraph | Iterable[AppMessage]") -> None:
        """``UnionCG``: merge another (causally closed) graph into this one."""
        incoming = (
            list(other._nodes.values())
            if isinstance(other, ReferenceCausalGraph)
            else list(other)
        )
        # Insert in dependency order so closure is maintained even while the
        # incoming iterable is unordered.
        pending = {m.uid: m for m in incoming if m.uid not in self._nodes}
        while pending:
            progressed = False
            for uid in list(pending):
                message = pending[uid]
                if all(d in self._nodes for d in message.deps):
                    self.add(message)
                    del pending[uid]
                    progressed = True
            if not progressed:
                raise LinearizationError(
                    f"incoming graph is not causally closed: stuck on "
                    f"{sorted(pending)}"
                )

    def linearize_extending(
        self, prefix: Sequence[AppMessage] = ()
    ) -> tuple[AppMessage, ...]:
        """``UpdatePromote``: a deterministic topological order of all messages
        that (a) has ``prefix`` as a prefix, (b) contains every message exactly
        once, and (c) respects every dependency edge.

        Ready messages are appended in ``uid`` order, which makes the result a
        pure function of (prefix, message set) — crucial for determinism of
        simulated runs.
        """
        placed: set[MessageId] = set()
        result: list[AppMessage] = []
        for message in prefix:
            if message.uid not in self._nodes:
                raise LinearizationError(
                    f"prefix message {message.uid} is not in the graph"
                )
            if message.uid in placed:
                raise LinearizationError(f"prefix repeats {message.uid}")
            if any(d not in placed for d in message.deps):
                raise LinearizationError(
                    f"prefix violates causal order at {message.uid}"
                )
            placed.add(message.uid)
            result.append(message)

        remaining = sorted(
            (uid for uid in self._nodes if uid not in placed)
        )
        while remaining:
            ready = [
                uid
                for uid in remaining
                if all(d in placed for d in self._nodes[uid].deps)
            ]
            if not ready:
                raise LinearizationError(
                    f"dependency cycle or missing node among {remaining}"
                )
            nxt = min(ready)
            placed.add(nxt)
            result.append(self._nodes[nxt])
            remaining.remove(nxt)
        return tuple(result)

    # -- queries -----------------------------------------------------------------

    def __contains__(self, key: object) -> bool:
        if isinstance(key, AppMessage):
            return key.uid in self._nodes
        return key in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self):
        return iter(self._nodes.values())

    def get(self, uid: MessageId) -> AppMessage | None:
        """The message with identity ``uid``, if present."""
        return self._nodes.get(uid)

    def messages(self) -> tuple[AppMessage, ...]:
        """All messages, in uid order (a frozen snapshot safe to send)."""
        return tuple(self._nodes[uid] for uid in sorted(self._nodes))

    def edges(self) -> set[tuple[MessageId, MessageId]]:
        """All dependency edges ``(m', m)``."""
        return {
            (dep, message.uid)
            for message in self._nodes.values()
            for dep in message.deps
        }

    def frontier(self) -> frozenset[MessageId]:
        """Messages that no other message depends on (the causal frontier).

        Used as the default ``C(m)`` of a new broadcast: depending on the
        frontier transitively captures the sender's entire causal past.
        """
        depended_on: set[MessageId] = set()
        for message in self._nodes.values():
            depended_on |= message.deps
        return frozenset(self._nodes) - depended_on

    def ancestors(self, uid: MessageId) -> frozenset[MessageId]:
        """The transitive causal past of one message (excluding itself)."""
        if uid not in self._nodes:
            raise KeyError(f"{uid} not in graph")
        seen: set[MessageId] = set()
        stack = list(self._nodes[uid].deps)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._nodes[current].deps)
        return frozenset(seen)

    def causally_precedes(self, first: MessageId, second: MessageId) -> bool:
        """True iff ``first`` is in the transitive causal past of ``second``."""
        return first in self.ancestors(second)

    def validate(self) -> None:
        """Check causal closure and acyclicity; raises on violation."""
        for message in self._nodes.values():
            for dep in message.deps:
                if dep not in self._nodes:
                    raise LinearizationError(
                        f"{message.uid} depends on missing {dep}"
                    )
        # Acyclicity follows from a successful full linearization.
        self.linearize_extending(())

    def copy(self) -> "ReferenceCausalGraph":
        """An independent copy (messages are immutable and shared)."""
        clone = ReferenceCausalGraph()
        clone._nodes = dict(self._nodes)
        return clone
