"""``run_until_quiescent`` reads the delivery cursors, on every rung.

The quiescence check stops a run at the first tick at which no message
deliverable before :data:`~repro.sim.types.NEVER` is queued for a process
alive at that tick. It reads each receiver's next-delivery cursor, which
every network keeps ordered by delivery time (``test_dataplane.py`` pins
that reading on the networks alone). Here a twin on the legacy kernel and
the naive stepper advances one tick at a time and stops by scanning its
envelope queues directly; every kernel, engine and scheduling must stop at
the same tick with the same run, over finite gossip, a receiver crashing
with mail queued, a permanent partition (``NEVER`` mail), a healing
partition (held mail that still counts) and random links with ``grace``
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.sim import (
    FailurePattern,
    FixedDelay,
    OneWayPartition,
    Process,
    Simulation,
    UniformDist,
    run_digest,
)
from repro.sim.types import NEVER

from helpers import BUILT_KERNELS


class Relay(Process):
    """p0 starts a token that each holder forwards to the next process
    until ``hops`` forwards are spent."""

    def __init__(self, hops: int) -> None:
        self.hops = hops

    def on_start(self, ctx):
        if ctx.pid == 0:
            ctx.send(1 % ctx.n, self.hops)

    def on_message(self, ctx, sender, payload):
        ctx.output(payload)
        if payload > 1:
            ctx.send((ctx.pid + 1) % ctx.n, payload - 1)


class Echo(Process):
    """Pings every other process at its first step; answers a ping with a
    pong."""

    def on_start(self, ctx):
        ctx.send_all(("ping", ctx.pid), include_self=False)

    def on_message(self, ctx, sender, payload):
        ctx.output(payload)
        if payload[0] == "ping":
            ctx.send(sender, ("pong", ctx.pid))


def split(groups: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, int], ...]:
    """Every ordered pair of processes in different groups."""
    return tuple(
        (a, b)
        for g in groups
        for h in groups
        if g is not h
        for a in g
        for b in h
    )


@dataclass(frozen=True)
class Cell:
    n: int
    process: Callable[[], Process]
    links: Any
    crashes: dict
    #: ticks run on the engine's own loop before the quiescence call, so
    #: the processes start and the fused loops leave the cursors behind.
    warm: int
    grace: int = 0


CELLS = {
    "relay": Cell(4, lambda: Relay(12), FixedDelay(3), {}, warm=4),
    "relay-receiver-crashes-with-mail": Cell(
        4, lambda: Relay(12), FixedDelay(3), {2: 15}, warm=4
    ),
    "echo-permanent-partition": Cell(
        4,
        Echo,
        OneWayPartition(FixedDelay(2), edges=split(((0, 1), (2, 3))), start=0),
        {},
        warm=4,
    ),
    "echo-healing-partition": Cell(
        4,
        Echo,
        OneWayPartition(
            FixedDelay(2), edges=split(((0, 1), (2, 3))), start=0, end=40
        ),
        {},
        warm=4,
    ),
    "echo-random-links-crash-grace": Cell(
        5, Echo, UniformDist(1, 30, seed=3), {4: 9}, warm=5, grace=2
    ),
}

MAX_TIME = 10_000


def build(cell: Cell, *, kernel: str, engine: str, scheduling: str) -> Simulation:
    return Simulation(
        [cell.process() for _ in range(cell.n)],
        failure_pattern=FailurePattern.crash(cell.n, cell.crashes),
        delay_model=cell.links,
        timeout_interval=10_000,
        seed=11,
        scheduling=scheduling,
        engine=engine,
        kernel=kernel,
        record="full",
    )


def reference_run(cell: Cell, scheduling: str) -> Simulation:
    """The twin: legacy queues, one naive tick at a time, stopping when no
    alive receiver's queue holds an envelope due before ``NEVER``."""
    twin = build(cell, kernel="legacy", engine="naive", scheduling=scheduling)
    twin.run_until(cell.warm)
    queues = twin.network._queues
    while twin.time < MAX_TIME:
        alive = twin.failure_pattern.alive_at(twin.time)
        if not any(e.deliver_at < NEVER for r in alive for e in queues[r]):
            break
        twin.run_until(twin.time + 1)
    if cell.grace:
        twin.run_steps(cell.grace * cell.n)
    return twin


@pytest.mark.parametrize("cell", list(CELLS))
@pytest.mark.parametrize("scheduling", ["round_robin", "random"])
@pytest.mark.parametrize("engine", ["event", "naive"])
@pytest.mark.parametrize("kernel", BUILT_KERNELS)
def test_every_rung_stops_where_the_queue_scan_stops(
    kernel, engine, scheduling, cell
):
    spec = CELLS[cell]
    reference = reference_run(spec, scheduling)
    assert reference.time < MAX_TIME, "the cell never quiesces"
    sim = build(spec, kernel=kernel, engine=engine, scheduling=scheduling)
    sim.run_until(spec.warm)
    assert sim.run_until_quiescent(grace=spec.grace, max_time=MAX_TIME) is sim.run
    assert sim.time == reference.time
    assert sim.run == reference.run
    assert run_digest(sim) == run_digest(reference)
    assert [sim.network.in_transit(r) for r in range(spec.n)] == [
        reference.network.in_transit(r) for r in range(spec.n)
    ]
    if not spec.grace:
        head = sim.network.earliest_pending(sim.alive())
        assert head is None or head >= NEVER
