"""Open-loop client populations with counter-based schedules.

A :class:`WorkloadSpec` describes a population of clients issuing Zipf-keyed
read/write operations against a replicated KV service. Every draw — the
inter-arrival gap before a client's ``k``-th operation, its key rank, its
read/write coin — is a pure function of ``(tag, spec.seed, client, k)`` via
:func:`~repro.sim.types.draw_unit`, the same counter-based discipline as
:mod:`repro.sim.envs`: one tag word per kind of draw, computed at import,
and every coordinate mixed as a 64-bit word (the seed must be an ``int``
and is taken mod 2**64). Consequences, all load-bearing:

- a schedule never depends on simulation history, worker count, or kernel:
  two runs of the same spec submit the same commands at the same ticks, so
  workload metrics are pinnable numbers;
- no schedule is ever materialized: an :class:`OpenLoopClient` keeps only
  ``(next k, next arrival tick)`` and regenerates each operation on the fly,
  so a million-op population costs O(1) memory per client.

The arrivals are *open-loop*: a client submits its ``k``-th operation when
the clock reaches the schedule's arrival tick whether or not earlier
operations completed — slow service shows up as queueing in the measured
latency (no coordinated omission) rather than as a silently stretched
schedule. Arrivals quantize to the client's next local step (its periodic
timeout), and latency is measured from the *scheduled* arrival tick, so the
quantization delay is measured, not hidden.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from repro.replication.client import ClientProcess, Request
from repro.sim.context import Context
from repro.sim.errors import ConfigurationError
from repro.sim.types import Time, check_seed, draw_unit, tag_word

__all__ = [
    "OpenLoopClient",
    "WorkloadSpec",
    "arrival_gap",
    "final_arrival",
    "op_command",
    "population",
]

_GAP = tag_word("workload-gap")
_KEY = tag_word("workload-key")
_RW = tag_word("workload-rw")


@dataclass(frozen=True)
class WorkloadSpec:
    """One client population: who submits what, when.

    ``mean_gap`` is the mean inter-arrival time of one client's operations in
    ticks (exponential gaps, floored at one tick), so the population's
    offered load is roughly ``clients / mean_gap`` operations per tick.
    ``zipf_s`` skews key popularity (``P(rank r) ~ 1 / r**zipf_s`` over
    ``keys`` keys); ``read_fraction`` splits ``get`` from ``set``.
    """

    clients: int = 4
    ops_per_client: int = 25
    mean_gap: Time = 16
    keys: int = 64
    zipf_s: float = 1.1
    read_fraction: float = 0.5
    start: Time = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ConfigurationError("need at least one client")
        if self.ops_per_client < 1:
            raise ConfigurationError("need at least one op per client")
        if self.mean_gap < 1:
            raise ConfigurationError("mean_gap must be >= 1 tick")
        if self.keys < 1:
            raise ConfigurationError("need at least one key")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read_fraction must be in [0, 1]")
        if self.start < 0:
            raise ConfigurationError("start must be >= 0")
        check_seed(self.seed, "WorkloadSpec")

    @property
    def total_ops(self) -> int:
        return self.clients * self.ops_per_client


# -- counter-based draws ----------------------------------------------------------


def arrival_gap(spec: WorkloadSpec, client: int, k: int) -> Time:
    """Gap before ``client``'s ``k``-th operation: exponential, mean
    ``spec.mean_gap``, floored at one tick; pure in ``(seed, client, k)``."""
    gap = int(-spec.mean_gap * math.log(draw_unit(_GAP, spec.seed, client, k)))
    return gap if gap >= 1 else 1


@lru_cache(maxsize=32)
def _zipf_keys(keys: int, s: float) -> tuple[tuple[float, ...], tuple[str, ...]]:
    """Cumulative Zipf weights over ranks ``1..keys`` and the key name of
    each 0-based rank (cached per shape)."""
    weights = [1.0 / (rank ** s) for rank in range(1, keys + 1)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0  # guard against float round-off at the top
    return tuple(cdf), tuple(f"key-{rank}" for rank in range(keys))


def op_command(spec: WorkloadSpec, client: int, k: int) -> tuple:
    """The KV command of ``client``'s ``k``-th operation: a Zipf-ranked key
    (rank 0 is the hottest) and a read/write coin."""
    cdf, names = _zipf_keys(spec.keys, spec.zipf_s)
    seed = spec.seed
    key = names[bisect_left(cdf, draw_unit(_KEY, seed, client, k))]
    if draw_unit(_RW, seed, client, k) <= spec.read_fraction:
        return ("get", key)
    # A value pure in (client, k): duplicated at-least-once executions are
    # idempotent, and any replica state is reconstructible from the spec.
    return ("set", key, client * spec.ops_per_client + k)


def final_arrival(spec: WorkloadSpec) -> Time:
    """The last scheduled arrival tick of the whole population.

    O(total ops); used once per run to size the simulation horizon.
    """
    last = spec.start
    for client in range(spec.clients):
        t = spec.start
        for k in range(spec.ops_per_client):
            t += arrival_gap(spec, client, k)
        if t > last:
            last = t
    return last


# -- the driving client -----------------------------------------------------------


class OpenLoopClient(ClientProcess):
    """A :class:`~repro.replication.client.ClientProcess` that generates its
    own submissions from a :class:`WorkloadSpec` instead of consuming
    ``("submit", ...)`` inputs.

    On every local timeout it drains the operations whose scheduled arrival
    tick has passed — submitting each with the parent's retry/failover state
    machine — then runs the parent's retry scan. Each submission is announced
    as an output ``("client-submit", rid, arrival_tick)`` carrying the
    *scheduled* arrival, which is what the latency observer measures from
    (open-loop latency includes the queueing delay between schedule and
    submission). Runs with ``retain_results=False``, so memory is bounded by
    outstanding requests, never by operations issued.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        client_index: int,
        replicas,
        *,
        retry_after: Time = 60,
        max_retries: int = 8,
    ) -> None:
        super().__init__(
            replicas,
            retry_after=retry_after,
            max_retries=max_retries,
            retain_results=False,
        )
        if not 0 <= client_index < spec.clients:
            raise ConfigurationError(
                f"client_index {client_index} outside spec of "
                f"{spec.clients} clients"
            )
        self.spec = spec
        self.client_index = client_index
        # Spread sticky targets across the replicas instead of dog-piling
        # replica 0 (failover still walks the ring on retries).
        self._target_index = client_index % len(self.replicas)
        self._next_k = 0
        self._next_arrival = spec.start + arrival_gap(spec, client_index, 0)
        self.submitted = 0

    def on_timeout(self, ctx: Context) -> None:
        spec = self.spec
        while self._next_k < spec.ops_per_client and self._next_arrival <= ctx.time:
            k = self._next_k
            command = op_command(spec, self.client_index, k)
            rid = self._next_rid
            self._next_rid += 1
            self.pending[rid] = (command, ctx.time, 0)
            self.submitted += 1
            ctx.output(("client-submit", rid, self._next_arrival))
            ctx.send(self._target(), Request(rid, command))
            self._next_k = k + 1
            self._next_arrival += arrival_gap(spec, self.client_index, k + 1)
        super().on_timeout(ctx)

    @property
    def done(self) -> bool:
        """Every scheduled operation submitted and resolved."""
        return self._next_k >= self.spec.ops_per_client and not self.pending


def population(
    spec: WorkloadSpec,
    replicas,
    *,
    retry_after: Time = 60,
    max_retries: int = 8,
) -> list[OpenLoopClient]:
    """The spec's client processes, in client-index order."""
    return [
        OpenLoopClient(
            spec, index, replicas,
            retry_after=retry_after, max_retries=max_retries,
        )
        for index in range(spec.clients)
    ]
