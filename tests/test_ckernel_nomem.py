"""Every allocation a call into the C kernel makes can fail, and each
failure keeps the failure contract.

``_testcapi.set_nomemory(k, k + 1)``, CPython's own test hook, makes the
k-th allocation after it fail (counting from 0) in the raw, mem and object
allocator domains. ``_ckernel.c`` allocates only through ``PyMem_*`` and
the C API, so the hook reaches every allocation it makes, and every one
the interpreter makes on its behalf, on a release build. Each test sweeps
k = 0, 1, 2, ... over one call into a C entry point until the call
completes, and checks what each injected failure leaves:

- the call raises ``MemoryError``: never ``SystemError`` or a crash;
- a run call leaves ``sim.failed`` set, and every later run call raises
  ``SimulationFailed`` (:func:`test_kernel.assert_failed_for_good`);
- a broadcast is all or nothing: no queued message carries a sequence
  number past the network's sent count, and a failed send or pop leaves
  the network as it found it;
- the ``StepStore`` stays rectangular;
- every shared ``array('q')`` is released: it can ``append`` and ``pop``;
- a repeat at the same k leaves ``sys.getallocatedblocks()`` where the
  first attempt left it. The first may fill a cache, so the check compares
  the repeat. Each count follows ``gc.collect()`` and
  ``sys._clear_type_cache()``: the interpreter's attribute cache keeps the
  name of each slot's last lookup alive, a slot is picked by the name's
  address, so a name built at run time (``PyObject_GetAttrString``,
  ``getattr`` with a computed string) outlives its call until a later
  lookup takes its slot, and whether that happens between two counts
  turns on where earlier tests left the allocator.

The sweep's last k is confirmed with ``set_nomemory(k, 0)``, which fails
every allocation from the k-th on: the call still completes, so it made
fewer than k allocations and the sweep skipped no point.

The processes here are written without closures. Python 3.11 leaks a
frame's arguments when allocating a closure cell fails in the frame's
prologue, so a leak check through such handlers would measure the
interpreter, not the kernel.

Skipped when the extension or ``_testcapi`` is missing.
"""

from __future__ import annotations

import gc
import sys
from functools import partial
from typing import NamedTuple

import pytest

from repro.core.etob import EtobLayer
from repro.sim import FailurePattern, Layer, ProtocolStack, SimObserver, Simulation
from repro.sim._compiled import ckernel
from repro.sim.context import Context
from repro.sim.kernel import HAS_COMPILED_LOOP, CompiledPackedNetwork
from repro.sim.process import Process
from repro.sim.runs import StepStore
from repro.sim.stack import LayerContext
from repro.sim.types import (
    block_permutation,
    draw_below,
    draw_unit,
    stable_hash,
)

from helpers import assert_rectangular
from test_kernel import STAGE_ROWS, assert_failed_for_good
from test_network import Heard, Pulse, assert_buffers_released

_testcapi = pytest.importorskip("_testcapi")
if not HAS_COMPILED_LOOP:
    pytest.skip("the C extension is not built", allow_module_level=True)

#: an allocation count no call reaches: injects nothing
NEVER = 2**30

PAYLOAD = ("beat",)
INPUT = ("input",)


def inject(k: int, stop: int, call, *args):
    """``call(*args)`` with allocations ``k`` up to ``stop`` (exclusive;
    0 means every one) counted from here failing."""
    _testcapi.set_nomemory(k, stop)
    try:
        return call(*args)
    finally:
        _testcapi.remove_mem_hooks()


def settled_blocks() -> int:
    """``sys.getallocatedblocks()`` once the collector and the type
    attribute cache have let go of what they hold (module docstring)."""
    gc.collect()
    sys._clear_type_cache()
    return sys.getallocatedblocks()


def sweep(attempt, *, rest: bool = False) -> int:
    """Runs ``attempt(k, stop)`` -- build fresh state, make the armed call
    through :func:`inject`, check the state a ``MemoryError`` left and
    return whether the call completed -- for k = 0, 1, ... until it
    completes, with the leak check of the module docstring at every k.
    With ``rest`` every allocation from the k-th on fails, not only the
    k-th: the cleanup a failure runs fails too. Returns the number of
    failure points."""
    attempt(NEVER, 0)  # fills once every cache the call fills
    gc.collect()
    gc.freeze()  # keeps each collection to what the attempts made
    try:
        k, blocks = 0, sys.getallocatedblocks()  # an int the loop replaces
        while not attempt(k, 0 if rest else k + 1):
            blocks = settled_blocks()
            attempt(k, 0 if rest else k + 1)
            assert settled_blocks() == blocks, f"allocation {k} leaked"
            k += 1
        assert attempt(k, 0), f"an allocation past {k} failed unseen"
        return k
    finally:
        gc.unfreeze()


def assert_no_partial_broadcast(net: CompiledPackedNetwork) -> None:
    """Every queued message took a sequence number the sent count covers:
    a broadcast that queued part of its fan-out before failing would leave
    messages past it."""
    state = net._pool.__getstate__()
    seqs, payloads, sent = state[1], state[4], net._counts[0]
    assert all(
        seq < sent for seq, payload in zip(seqs, payloads)
        if payload is not None
    )


# -- run_loop ------------------------------------------------------------------


class Chatter(Process):
    """Every effect the loop expands: broadcasts with and without the
    sender, point-to-point sends, outputs and log entries, from every
    handler the loop calls."""

    def on_start(self, ctx):
        ctx.send_all(PAYLOAD)

    def on_input(self, ctx, value):
        ctx.send((ctx.pid + 2) % ctx.n, value)
        ctx.output(value)

    def on_timeout(self, ctx):
        ctx.send((ctx.pid + 1) % ctx.n, PAYLOAD)
        ctx.send_all(PAYLOAD, include_self=False)
        ctx.output(PAYLOAD)
        ctx.log(PAYLOAD)

    def on_message(self, ctx, sender, payload):
        if payload is INPUT:
            ctx.log(payload)


class Settling:
    """A detector history queried until tick ``at`` and settled after it."""

    def __init__(self, at: int) -> None:
        self.at = at

    def query(self, pid, t):
        return t % 2

    def settles(self):
        return self.at, 0


class Links:
    """Delays of 1 to 3 ticks, pure in (sender, receiver, t), drawn one
    receiver at a time."""

    def delay(self, sender, receiver, t):
        return 1 + (sender + 2 * receiver + t) % 3


class ProfiledLinks(Links):
    """The same delays through the vectorized hook."""

    def delay_profile(self, sender, t, receivers):
        delays = []
        for receiver in receivers:
            delays.append(self.delay(sender, receiver, t))
        return delays


class UnprofiledLinks(Links):
    """A model whose hook reads None: per-receiver draws, as without it."""

    delay_profile = None


class RawSpy(SimObserver):
    def on_step_raw(self, sim, *fields):
        pass

    def on_log(self, sim, t, pid, event):
        pass


class StepSpy(SimObserver):
    """Overrides ``on_step`` alone: the loop calls the base
    ``on_step_raw``, which builds each ``StepRecord``."""

    def on_step(self, sim, record):
        pass


class RunCell(NamedTuple):
    """One swept run: the armed call runs ``ticks`` ticks from ``start``
    (reached unarmed, so that its ticks, counts and rows are past the
    interpreter's cached small ints and box into fresh allocations)."""

    record: str
    scheduling: str
    observers: tuple = ()
    start: int = 0
    ticks: int = 60
    n: int = 3
    crashes: tuple = ((2, 30),)
    settle: int = 12
    timeouts: tuple = (7, 9, 40)
    #: (pid, tick from start) of each input
    inputs: tuple = ((0, 3), (1, 3), (0, 20))


#: every record each schedule serves on the C loop, at record="metrics" a
#: raw and an on_step-only observer beside the folded recorder, five
#: processes once (the started set grows), and three runs continued past
#: tick 256; then a crash-free record="full" run of more than STAGE_ROWS
#: rows, most of them idle ones the loop stages itself, whose stage fills
#: and flushes inside the call at an executed step (an input at tick
#: STAGE_ROWS).
RUN_CELLS = [
    RunCell("full", "round_robin"),
    RunCell("outputs", "round_robin"),
    RunCell("metrics", "round_robin", (RawSpy, StepSpy)),
    RunCell("none", "round_robin", n=5),
    RunCell("outputs", "random"),
    RunCell("metrics", "random", (RawSpy,)),
    RunCell("none", "random"),
    RunCell("full", "round_robin", start=300, ticks=40, crashes=((2, 330),),
            settle=320),
    RunCell("metrics", "round_robin", (RawSpy,), start=1200, ticks=30,
            crashes=((2, 1220),), settle=1210),
    RunCell("none", "random", start=300, crashes=((2, 330),)),
    RunCell("full", "round_robin", ticks=STAGE_ROWS + 20, crashes=(),
            timeouts=(300, 300, 300),
            inputs=((0, 3), (1, 3), (0, 20), (STAGE_ROWS % 3, STAGE_ROWS))),
]


def cell_id(cell: RunCell) -> str:
    return "-".join(
        [cell.record, cell.scheduling]
        + [f"from-{cell.start}"] * (cell.start > 0)
        + ["full-stage"] * (cell.ticks > STAGE_ROWS)
    )


def chatter_sim(cell: RunCell) -> Simulation:
    """Three chatters, p2 crashing unless the cell says otherwise: idle
    spans before and past the crash, inputs, a detector queried before it
    settles, and broadcasts drawn per receiver under round-robin and
    through the vectorized hook under random scheduling."""
    sim = Simulation(
        [Chatter() for _ in range(cell.n)],
        failure_pattern=FailurePattern(cell.n, dict(cell.crashes)),
        detector=Settling(cell.settle),
        delay_model=ProfiledLinks() if cell.scheduling == "random" else Links(),
        timeout_interval=[cell.timeouts[p % 3] for p in range(cell.n)],
        seed=3,
        scheduling=cell.scheduling,
        message_batch=2,
        record=cell.record,
        observers=[make() for make in cell.observers],
    )
    for pid, t in cell.inputs:
        sim.add_input(pid, cell.start + t, INPUT)
    return sim


def run_attempt(build, start: int, end: int, k: int, stop: int) -> bool:
    sim = build()
    assert sim.fused_path == "c-loop"
    sim.run_until(start)
    sim._fused_run = partial(inject, k, stop, sim._fused_run)
    try:
        sim.run_until(end)
    except MemoryError as exc:
        assert_failed_for_good(sim, exc)
        assert_buffers_released(sim)
        assert_no_partial_broadcast(sim.network)
        if isinstance(sim.run.steps, StepStore):
            assert_rectangular(sim.run.steps)
        return False
    return True


def cell_attempt(cell: RunCell):
    return partial(
        run_attempt, partial(chatter_sim, cell), cell.start,
        cell.start + cell.ticks,
    )


@pytest.mark.parametrize("cell", RUN_CELLS, ids=map(cell_id, RUN_CELLS))
def test_run_loop(cell):
    assert sweep(cell_attempt(cell)) > 100


@pytest.mark.parametrize(
    "cell", [RUN_CELLS[0], RUN_CELLS[8]], ids=cell_id
)
def test_run_loop_when_its_cleanup_fails_too(cell):
    """Every allocation from the k-th on fails: the flushes of the
    record="full" stage and of the record="metrics" fold on the failure
    path fail as well, and the raise that escapes is still the first."""
    assert sweep(cell_attempt(cell), rest=True) > 100


# -- run_loop dispatching into ProtocolStack layers ---------------------------


def etob_stack():
    return ProtocolStack([EtobLayer()])


def pulse_stack():
    return ProtocolStack([Pulse(), Heard()])


def stack_sim(make_stack, inputs) -> Simulation:
    """Three stacks on the C loop, which runs their dispatch plans: Ω
    queried until tick 12 and settled on p0 after it, so an ETOB p0
    promotes on its timeouts and the others adopt."""
    sim = Simulation(
        [make_stack() for _ in range(3)],
        detector=Settling(12),
        delay_model=Links(),
        timeout_interval=[4, 5, 6],
        message_batch=2,
        record="metrics",
    )
    for pid, t, value in inputs:
        sim.add_input(pid, t, value)
    return sim


#: a real ETOB stack and a two-layer stack whose handlers queue a drain,
#: each swept over ticks 30 to 60. The ETOB cell's second broadcast falls
#: inside the swept ticks, beside timeouts, promotes, the updates still in
#: flight and the adoptions.
STACK_CELLS = {
    "etob": (etob_stack, ((1, 2, ("broadcast", "m1")),
                          (2, 31, ("broadcast", "m2")))),
    "two-layer-drain": (pulse_stack, ()),
}


@pytest.mark.parametrize("name", sorted(STACK_CELLS))
def test_run_loop_through_a_stack(name):
    make_stack, inputs = STACK_CELLS[name]
    build = partial(stack_sim, make_stack, inputs)
    sim = build()
    assert type(sim.processes[0]._dispatch_plan(sim._ctx)) is tuple
    assert sweep(partial(run_attempt, build, 30, 60)) > 100


def test_the_full_stage_cell_fills_its_stage_at_an_executed_step():
    cell = RUN_CELLS[-1]
    sim = chatter_sim(cell)
    sim.run_until(cell.ticks)
    steps = sim.run.steps
    assert len(steps) > STAGE_ROWS
    assert steps[STAGE_ROWS].inputs == (INPUT,)


# -- the send path and the pool ------------------------------------------------


def network(n: int, links) -> CompiledPackedNetwork:
    """A network whose every shard holds 8 messages, its capacity: the
    next message to any receiver grows its shard, and at n = 8 the pool's
    64 slots are all taken, so the next send grows the pool too. The
    messages go out at ticks past 256, so every column value boxes into
    a fresh int."""
    net = CompiledPackedNetwork(n, links)
    for t in range(8):
        net.send_all_packed(t % n, PAYLOAD, 1000 + t)
    return net


def network_view(net: CompiledPackedNetwork) -> tuple:
    """The pool's state with each shard's heap sorted (a heap's layout is
    not its contents: it pops in (deliver_at, seq) order whatever it is),
    and the merge layer."""
    *columns, heaps = net._pool.__getstate__()
    return (*columns, [sorted(heap) for heap in heaps], list(net._counts),
            list(net._pending), list(net._next_at))


def network_attempt(n, links, call, k, stop) -> bool:
    """A send or a pop on a used network: a failed one leaves the pool and
    the merge layer as it found them, every array releasable."""
    net = network(n, links)
    before = network_view(net)
    try:
        inject(k, stop, call, net)
    except MemoryError:
        assert network_view(net) == before
        for arr in (net._next_at, net._pending, net._counts):
            arr.append(0)
            arr.pop()
        return False
    return True


def send_one(net):
    return net.send_packed(0, 1, PAYLOAD, 1010)


def send_all(net):
    return net.send_all_packed(0, PAYLOAD, 1010)


def send_others(net):
    return net.send_all_packed(0, PAYLOAD, 1010, include_self=False)


@pytest.mark.parametrize(
    "n,links,send",
    [
        (8, ProfiledLinks(), send_one),
        (8, ProfiledLinks(), send_all),
        (8, Links(), send_others),
        (8, UnprofiledLinks(), send_all),
        # past 16 receivers the deliver times go to the heap
        (20, ProfiledLinks(), send_all),
        (20, Links(), send_others),
    ],
    ids=["send_packed", "profile", "per-receiver", "profile-none",
         "wide-profile", "wide-per-receiver"],
)
def test_send(n, links, send):
    assert sweep(partial(network_attempt, n, links, send)) > 0


def pop(net):
    return net.pop_deliverable_batch_raw(0, 2000, 10)


def test_pop_due_batch():
    assert sweep(partial(network_attempt, 4, ProfiledLinks(), pop)) > 0


def pool_attempt(method: str, k, stop) -> bool:
    """One call pickling makes -- ``Pool(n)``, ``Pool.__reduce__`` or
    ``Pool.__setstate__`` -- with its k-th allocation failing. A failed
    ``__setstate__`` leaves the pool empty."""
    pool = network(4, ProfiledLinks())._pool
    cls, args, state = pool.__reduce__()
    copy = cls(*args)
    call, call_args = {
        "new": (cls, args),
        "reduce": (pool.__reduce__, ()),
        "setstate": (copy.__setstate__, (state,)),
    }[method]
    try:
        inject(k, stop, call, *call_args)
    except MemoryError:
        assert copy.slots() == copy.free() == 0
        return False
    if method == "setstate":
        assert copy.__getstate__() == state
    return True


@pytest.mark.parametrize("method", ["new", "reduce", "setstate"])
def test_pool_pickling(method):
    assert sweep(partial(pool_attempt, method)) > 0


# -- the hash, the permutations and the draws ----------------------------------


def pure_attempt(call, args, k, stop) -> bool:
    try:
        inject(k, stop, call, *args)
    except MemoryError:
        return False
    return True


def omega_context(fd_value) -> LayerContext:
    """A layer's view of a step whose detector sample is ``fd_value``."""
    return LayerContext(
        ProtocolStack([Layer()]), Context(0, 3, 5, fd_value), 0
    )


#: (call, its arguments, the fewest failure points its sweep must find)
PURE_CALLS = {
    "stable_hash": (stable_hash, ("node", 7, 2**70, "café", ("t", 1)), 1),
    "block_permutation": (block_permutation, (3, 2**40, 300), 1),
    # a draw allocates at most its result (a float may come off the float
    # free list, allocating nothing)
    "draw_unit": (draw_unit, (1, 2, 3), 0),
    "draw_below": (draw_below, (2**40, 1, 2, 3), 1),
    # an int sample is returned as it is; a composite one goes through
    # Context.omega in Python
    "layer_omega-int": (ckernel.layer_omega, (omega_context(2),), 0),
    "layer_omega-composite": (
        ckernel.layer_omega, (omega_context({"omega": 1}),), 0),
}


@pytest.mark.parametrize("name", sorted(PURE_CALLS))
def test_pure_functions(name):
    call, args, points = PURE_CALLS[name]
    assert sweep(partial(pure_attempt, call, args)) >= points
