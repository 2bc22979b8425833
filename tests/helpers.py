"""Shared scenario builders and statistics for the test suite.

These construct the standard simulations the paper's experiments revolve
around: ETOB/EC/EIC stacks under configurable environments, detector
stabilization times and delays. Keeping them here keeps individual tests
focused on the property being asserted. The chi-square helpers serve the
tests of the counter-based draws and block permutations; the reference
classes are earlier implementations kept as differential oracles.
"""

from __future__ import annotations

import math
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
from repro.sim.context import Context
from repro.sim.kernel import HAS_COMPILED, KERNELS
from repro.sim.errors import ConfigurationError, ProtocolError
from repro.sim.observers import SimObserver
from repro.sim.runs import RunRecord, StepRecord, StepStore
from repro.sim.types import ProcessId


#: the kernel rungs this interpreter can run.
BUILT_KERNELS = [k for k in KERNELS if k != "compiled-loop" or HAS_COMPILED]


def chi2_upper(dof: int, z: float = 3.09) -> float:
    """The upper ``z``-sigma quantile of chi-square with ``dof`` degrees of
    freedom (Wilson–Hilferty; ``z = 3.09`` is p = 0.001)."""
    c = 2 / (9 * dof)
    return dof * (1 - c + z * math.sqrt(c)) ** 3


def chi2(counts, expected: float) -> float:
    return sum((count - expected) ** 2 / expected for count in counts)


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
    **options: Any,
) -> Simulation:
    """A native EIC simulation run by ``EicDriverLayer``; ``options`` are
    further :class:`Simulation` keywords (``record``, ``kernel``,
    ``observers``)."""
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
        **options,
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


def fairness_slack(run) -> int:
    """The run's worst fairness gap: the largest number of clock ticks any
    correct process went without taking a step, the tail from its last
    step to the run's end included; ``run.end_time + 1`` when a correct
    process never stepped. A finite run's stand-in for the paper's
    admissibility (every correct process steps infinitely often):
    round-robin scheduling gives exactly ``n`` ticks between steps."""
    worst = 0
    for pid in sorted(run.correct):
        last_time = -1
        for step_time in run.step_times(pid):
            if last_time >= 0 and step_time - last_time > worst:
                worst = step_time - last_time
            last_time = step_time
        if last_time < 0:
            return run.end_time + 1
        if run.end_time - last_time > worst:
            worst = run.end_time - last_time
    return worst


#: the parallel columns of a :class:`~repro.sim.runs.StepStore`
STEP_COLUMNS = (
    "_index", "_time", "_pid", "_fd", "_msg_sender", "_msg_payload",
    "_msg_send_time", "_timeout", "_sent", "_received",
)


def assert_rectangular(store) -> None:
    """Every column of ``store`` holds one entry per step, and the sparse
    inputs / outputs point at steps it holds."""
    lengths = {name: len(getattr(store, name)) for name in STEP_COLUMNS}
    assert len(set(lengths.values())) == 1, lengths
    rows = len(store)
    assert all(0 <= p < rows for p in (*store._inputs, *store._outputs))


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


class ReferenceLayerContext:
    """``repro.sim.stack.LayerContext`` as it was before stacks bound their
    contexts once — one allocated per dispatch, holding its stack — verbatim.
    Test-only: see :class:`ReferenceStack`."""

    def __init__(self, stack: "ReferenceStack", base: Context, index: int) -> None:
        self._stack = stack
        self._base = base
        self.index = index

    # -- mirrored step facts ---------------------------------------------------

    @property
    def pid(self) -> ProcessId:
        return self._base.pid

    @property
    def n(self) -> int:
        group = self._stack.group_size
        return group if group is not None else self._base.n

    @property
    def time(self) -> int:
        return self._base.time

    @property
    def fd_value(self) -> Any:
        return self._base.fd_value

    def omega(self) -> ProcessId:
        return self._base.omega()

    def sigma(self) -> frozenset[ProcessId]:
        return self._base.sigma()

    def detector(self, name: str) -> Any:
        return self._base.detector(name)

    # -- effects -----------------------------------------------------------------

    def send(self, receiver: ProcessId, payload: Any) -> None:
        self._base.send(receiver, (self.index, payload))

    def send_all(self, payload: Any, *, include_self: bool = True) -> None:
        group = self._stack.group_size
        if group is None:
            self._base.send_all((self.index, payload), include_self=include_self)
            return
        framed = (self.index, payload)
        me = self._base.pid
        for receiver in range(group):
            if receiver == me and not include_self:
                continue
            self._base.send(receiver, framed)

    def send_raw(self, receiver: ProcessId, payload: Any) -> None:
        self._base.send(receiver, payload)

    def call_lower(self, request: Any) -> None:
        if self.index == 0:
            raise ProtocolError("bottom layer has no lower layer to call")
        self._stack._enqueue(self.index - 1, "call", request)

    def emit_upper(self, event: Any) -> None:
        if self.index == len(self._stack.layers) - 1:
            self._base.output(event)
        else:
            self._stack._enqueue(self.index + 1, "event", event)

    def output(self, value: Any) -> None:
        self._base.output(value)

    def log(self, event: Any) -> None:
        self._base.log((self._stack.layers[self.index].layer_name(), event))


class ReferenceStack(ProtocolStack):
    """``repro.sim.ProtocolStack``'s dispatch as it was before contexts were
    bound once: a fresh context per dispatch, timeouts offered to every
    layer, a drain after every handler, the pending queue tagged by kind —
    verbatim. Test-only: the oracle of ``tests/test_stack_dispatch.py``."""

    def _enqueue(self, index: int, kind: str, payload: Any) -> None:
        self._pending.append((index, kind, payload))

    def _drain(self, base_ctx: Context) -> None:
        guard = 0
        while self._pending:
            guard += 1
            if guard > 100_000:
                raise ProtocolError(
                    "layer dispatch did not quiesce within one step "
                    "(likely a call/event loop between layers)"
                )
            index, kind, payload = self._pending.popleft()
            ctx = ReferenceLayerContext(self, base_ctx, index)
            if kind == "call":
                self.layers[index].on_call(ctx, payload)
            elif kind == "event":
                self.layers[index].on_lower_event(ctx, payload)
            else:  # pragma: no cover - internal invariant
                raise ProtocolError(f"unknown dispatch kind {kind!r}")

    def on_start(self, ctx: Context) -> None:
        for index, layer in enumerate(self.layers):
            layer.on_start(ReferenceLayerContext(self, ctx, index))
        self._drain(ctx)

    def on_message(self, ctx: Context, sender: ProcessId, payload: Any) -> None:
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and isinstance(payload[0], int)
            and 0 <= payload[0] < len(self.layers)
        ):
            index, inner = payload
            self.layers[index].on_message(
                ReferenceLayerContext(self, ctx, index), sender, inner
            )
        else:
            top_index = len(self.layers) - 1
            self.layers[top_index].on_message(
                ReferenceLayerContext(self, ctx, top_index), sender, payload
            )
        self._drain(ctx)

    def on_input(self, ctx: Context, value: Any) -> None:
        top_index = len(self.layers) - 1
        self.layers[top_index].on_input(
            ReferenceLayerContext(self, ctx, top_index), value
        )
        self._drain(ctx)

    def on_timeout(self, ctx: Context) -> None:
        for index, layer in enumerate(self.layers):
            layer.on_timeout(ReferenceLayerContext(self, ctx, index))
        self._drain(ctx)


class LegacyFullRecorder(SimObserver):
    """Full-fidelity recording into a plain list of ``StepRecord`` objects:
    the pre-columnar data plane, kept as the oracle that the columnar
    ``StepStore`` is pinned byte-identical against, and as the baseline of
    its peak-memory test (``tests/test_dataplane.py``). Attach via
    ``Simulation(record="none", observers=[LegacyFullRecorder(run)])`` where
    ``run`` was built with ``steps=[]``; every step, idle ticks included,
    is materialized by the base hooks and retained as a dataclass, exactly
    as the seed engine recorded."""

    wants_idle_steps = True

    def __init__(self, run: RunRecord) -> None:
        if isinstance(run.steps, StepStore):
            raise ConfigurationError(
                "LegacyFullRecorder needs a list-backed run; build it with "
                "RunRecord(n, pattern, steps=[])"
            )
        self.run = run

    def on_step(self, sim: Simulation, record: StepRecord) -> None:
        self.run.record_step(record)

    def on_log(self, sim: Simulation, t: int, pid: ProcessId, event: Any) -> None:
        self.run.log.append((t, pid, event))
