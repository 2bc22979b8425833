"""Serving stacks and the one-call workload simulation builder.

``STACKS`` names the service configurations the workload experiment sweeps:

- ``direct`` — each replica is a standalone :class:`KvServerProcess`
  answering from its own local store, no replication and no coordination:
  the latency floor, and the only stack whose per-operation cost and memory
  are O(1), so it is the stack the million-op scale benchmark drives. (The
  ETOB/EC/consensus stacks send whole graphs and sequences, as the paper
  writes them; their handlers do Python-level work only for what a step
  changed, but still compare and copy whole sequences in C and keep the
  full history — see "Per-step cost of the serving stacks" in
  docs/ARCHITECTURE.md);
- ``etob`` — the paper's Algorithm 5 under each replica;
- ``ec`` — EC-from-Omega (Algorithm 4) lifted to ETOB via the Theorem 1
  transformation;
- ``paxos`` — strong TOB from Paxos consensus.

:func:`workload_sim` assembles replicas + an :class:`OpenLoopClient`
population + a :class:`LatencyObserver` into one
:class:`~repro.sim.scheduler.Simulation` under a named environment model
(:func:`repro.sim.envs.env_links`; an environment with churn is refused —
delay draws counter-based, so the whole run is pure in
``(spec, stack, env, seed)``).
"""

from __future__ import annotations

from typing import Any

from repro.consensus import PaxosConsensusLayer, TobFromConsensusLayer
from repro.core import EcUsingOmegaLayer, EtobLayer
from repro.core.transformations import EcToEtobLayer
from repro.detectors import OmegaDetector
from repro.replication import KvStore, ReplicaLayer
from repro.replication.client import ClientServingLayer, Reply, Request
from repro.sim import FailurePattern, ProtocolStack, Simulation, env_links
from repro.sim.context import Context
from repro.sim.errors import ConfigurationError
from repro.sim.kernel import DEFAULT_KERNEL
from repro.sim.process import Process
from repro.sim.types import ProcessId, Time
from repro.workload.observer import LatencyObserver
from repro.workload.population import WorkloadSpec, final_arrival, population

__all__ = ["STACKS", "KvServerProcess", "workload_sim"]

#: stack name -> human description, in report order.
STACKS = {
    "direct": "standalone KV servers (no coordination; the latency floor)",
    "etob": "eventually consistent: Algorithm 5 (native ETOB)",
    "ec": "eventually consistent: Algorithm 4 + Theorem 1 transformation",
    "paxos": "strongly consistent: TOB from Paxos consensus",
}


class KvServerProcess(Process):
    """A standalone KV server speaking the client ``Request``/``Reply``
    protocol with bounded memory.

    Duplicate retries are answered from a per-client window of the most
    recent ``dedup_window`` results (rids are issued sequentially per client
    and retried within the client's bounded retry budget, so a window
    comfortably above ``max_retries`` cannot re-execute a live request);
    evicted entries cost a re-execution of an idempotent command, never
    unbounded state.
    """

    def __init__(self, machine: KvStore | None = None, *, dedup_window: int = 128) -> None:
        if dedup_window < 1:
            raise ConfigurationError("dedup_window must be >= 1")
        self.machine = machine if machine is not None else KvStore()
        self.state = self.machine.initial()
        self.dedup_window = dedup_window
        #: per client: rid -> result, insertion-ordered for FIFO eviction.
        self._recent: dict[ProcessId, dict[int, Any]] = {}
        self.executed = 0
        self.duplicate_retries = 0

    def on_message(self, ctx: Context, sender: ProcessId, payload: Any) -> None:
        if not isinstance(payload, Request):
            return
        recent = self._recent.setdefault(sender, {})
        if payload.rid in recent:
            self.duplicate_retries += 1
            ctx.send(sender, Reply(payload.rid, recent[payload.rid]))
            return
        self.state, result = self.machine.apply(self.state, payload.command)
        self.executed += 1
        recent[payload.rid] = result
        if len(recent) > self.dedup_window:
            recent.pop(next(iter(recent)))
        ctx.send(sender, Reply(payload.rid, result))


def _replica_process(stack: str, replicas: int) -> Process:
    """One replica of the named serving stack.

    Coordination stacks run with ``group_size=replicas``: the replicas are
    the protocol group; client pids above them share the simulation without
    distorting quorums or receiving protocol broadcasts.
    """
    if stack == "direct":
        return KvServerProcess()
    if stack == "etob":
        layers = [EtobLayer()]
    elif stack == "ec":
        layers = [EcUsingOmegaLayer(), EcToEtobLayer()]
    elif stack == "paxos":
        layers = [PaxosConsensusLayer(), TobFromConsensusLayer()]
    else:
        raise ConfigurationError(
            f"unknown stack {stack!r}; known: {list(STACKS)}"
        )
    return ProtocolStack(
        layers + [ReplicaLayer(KvStore()), ClientServingLayer()],
        group_size=replicas,
    )


def workload_sim(
    spec: WorkloadSpec,
    *,
    stack: str = "etob",
    replicas: int = 3,
    env: str = "baseline",
    base_delay: Time = 2,
    timeout_interval: Time = 4,
    retry_after: Time = 120,
    max_retries: int = 8,
    record: str = "metrics",
    kernel: str = DEFAULT_KERNEL,
    message_batch: int = 4,
    precision_bits: int = 9,
    observers: tuple = (),
) -> tuple[Simulation, LatencyObserver, Time]:
    """A ready-to-run workload simulation.

    Returns ``(sim, observer, horizon)``: replicas occupy pids
    ``0..replicas-1`` and the spec's clients the pids above them; ``horizon``
    is a run deadline past the last scheduled arrival with drain slack for
    retries (callers may run further; the observer only ever adds on client
    output). Omega is pinned to replica 0 from the start — workload runs
    measure serving latency, not leader (re-)election, which the
    stabilization experiments cover.
    """
    if replicas < 1:
        raise ConfigurationError("need at least one replica")
    n = replicas + spec.clients
    pattern = FailurePattern.no_failures(n)
    detector = OmegaDetector(stabilization_time=0, leader=0).history(
        pattern, seed=spec.seed
    )
    replica_ids = list(range(replicas))
    processes: list[Process] = [
        _replica_process(stack, replicas) for _ in range(replicas)
    ]
    processes.extend(
        population(
            spec, replica_ids, retry_after=retry_after, max_retries=max_retries
        )
    )
    observer = LatencyObserver(
        range(replicas, n), precision_bits=precision_bits
    )
    sim = Simulation(
        processes,
        failure_pattern=pattern,
        detector=detector,
        delay_model=env_links(env, seed=spec.seed, base_delay=base_delay),
        timeout_interval=timeout_interval,
        seed=spec.seed,
        message_batch=message_batch,
        record=record,
        kernel=kernel,
        observers=[observer, *observers],
    )
    slack = 2 * retry_after * (max_retries + 1) + 40 * base_delay
    horizon = final_arrival(spec) + slack
    return sim, observer, horizon
