"""Stateful differential: every built kernel rung, driven in lockstep.

The fixed kernel x scheduling x engine matrix of ``test_kernel.py`` runs
each configuration start to finish. This machine covers what happens *in
between*: Hypothesis draws an environment, a crash pattern, a scheduling
policy, a record level and a batch size, builds the same simulation once
per built rung (plus ``engine="naive"`` on ``legacy``, the seed oracle) and
then interleaves

- ``run_steps(k)``,
- ``add_input`` at drawn offsets,
- attaching and detaching step / raw-step / send / deliver / log spies
  (each of which moves a run up or down the fused-loop ladder), and
- a pickle or deepcopy round trip of every simulation,

asserting after every rule that digests, traffic counters, pending state,
``RunMetrics``, run records and what every spy saw agree across all rungs,
and that each ``sim.fused_path`` is exactly what the ladder's rules say.
It is the precondition ROADMAP 9(4) set for making the C loop the default.

Tier-1 runs a bounded budget; ``HYPOTHESIS_PROFILE=nightly`` digs deeper.
"""

from __future__ import annotations

import copy
import os
import pickle

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.detectors import OmegaDetector
from repro.sim import (
    HAS_COMPILED,
    FailurePattern,
    FixedDelay,
    Process,
    SimObserver,
    Simulation,
    make_env,
    run_digest,
)

from test_kernel import BUILT_KERNELS, SometimesNeverDelay

DEEP = os.environ.get("HYPOTHESIS_PROFILE") == "nightly"

#: ``(kernel, engine)`` legs; the first is the oracle the rest are held to.
LEGS = [("legacy", "naive")] + [(kernel, "event") for kernel in BUILT_KERNELS]


class Talker(Process):
    """Point-to-point and broadcast traffic, outputs and log lines, all a
    pure function of what the process has seen."""

    def __init__(self) -> None:
        self.seen = 0

    def on_input(self, ctx, value):
        ctx.send_all(("input", value))
        ctx.output(("accepted", value))

    def on_timeout(self, ctx):
        ctx.send((ctx.pid + 1) % ctx.n, ("beat", ctx.time))
        ctx.log(("leader", ctx.fd_value))

    def on_message(self, ctx, sender, payload):
        self.seen += 1
        if self.seen % 4 == 0:
            ctx.send_all(("echo", self.seen), include_self=False)
        if payload[0] == "input":
            ctx.output(("delivered", sender, payload[1]))


class Spy(SimObserver):
    """Base of the attachable spies: records what it is shown."""

    def __init__(self) -> None:
        self.seen: list = []


class StepSpy(Spy):  # no raw hook: drops any fused loop to the generic engine
    def on_step(self, sim, record):
        self.seen.append((record.time, record.pid, record.sent))


class RawStepSpy(Spy):  # raw-capable: every fused loop stays engaged
    def on_step(self, sim, record):
        self.seen.append((record.time, record.pid, record.sent))

    def on_step_raw(
        self, sim, index, t, pid, sender, payload, send_time, fd_value,
        inputs, outputs, timeout_fired, sent, received_count,
    ):
        self.seen.append((t, pid, sent))


class SendSpy(Spy):  # needs Envelope views: the C loop degrades one rung
    def on_send(self, sim, envelope):
        self.seen.append(("send", envelope))


class DeliverSpy(Spy):
    def on_deliver(self, sim, envelope):
        self.seen.append(("deliver", envelope))


class LogSpy(Spy):  # log dispatch crosses back from C: costs no rung
    def on_log(self, sim, t, pid, event):
        self.seen.append((t, pid, event))


SPIES = {cls.__name__: cls for cls in (StepSpy, RawStepSpy, SendSpy, DeliverSpy, LogSpy)}


def delay_model(env: str, seed: int):
    """A fresh model per simulation (two of them carry RNG state)."""
    if env == "fixed":
        return FixedDelay(1 + seed % 4)
    if env == "sometimes-never":  # no delay_profile: per-receiver draws
        return SometimesNeverDelay(seed)
    return make_env(env, seed=seed).delay  # counter-based, vectorized


def expected_path(kernel, engine, scheduling, record, spies) -> str | None:
    """The ladder's rules, restated independently of ``fused_runner``.

    The C loop serves both schedules; the Python fused loop is round-robin
    only, so a random-scheduled run is on the C loop or on no fused loop.
    """
    if engine == "naive" or kernel == "legacy":
        return None
    if any(type(spy) is StepSpy for spy in spies):
        return None
    random = scheduling == "random"
    if random and record == "full":  # every idle step is materialized
        return None
    if kernel == "compiled-loop" and not any(
        isinstance(spy, (SendSpy, DeliverSpy)) for spy in spies
    ):
        return "c-loop"
    return None if random else "python"


class KernelLadderMachine(RuleBasedStateMachine):
    @initialize(
        n=st.integers(2, 5),
        env=st.sampled_from(["fixed", "uniform", "flaky", "sometimes-never"]),
        seed=st.integers(0, 50),
        crashes=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 400)), max_size=3
        ),
        scheduling=st.sampled_from(["round_robin", "random"]),
        record=st.sampled_from(["full", "outputs", "metrics", "none"]),
        message_batch=st.sampled_from([1, 1, 3]),
        timeout=st.integers(1, 12),
    )
    def build(
        self, n, env, seed, crashes, scheduling, record, message_batch, timeout
    ):
        crash_times = {pid: at for pid, at in crashes if pid < n}
        if len(crash_times) == n:
            del crash_times[min(crash_times)]
        pattern = FailurePattern(n, crash_times)
        self.scheduling = scheduling
        self.record = record
        self.sims = {}
        #: per leg, the spies attached so far, in attachment order.
        self.spies = {leg: [] for leg in LEGS}
        for kernel, engine in LEGS:
            self.sims[kernel, engine] = Simulation(
                [Talker() for __ in range(n)],
                failure_pattern=pattern,
                detector=OmegaDetector(stabilization_time=120).history(
                    pattern, seed=seed
                ),
                delay_model=delay_model(env, seed),
                seed=seed,
                timeout_interval=timeout,
                scheduling=scheduling,
                message_batch=message_batch,
                engine=engine,
                kernel=kernel,
                record=record,
            )
        self.n = n
        self.inputs = 0

    # -- rules ---------------------------------------------------------------

    @rule(ticks=st.integers(1, 160))
    def run_steps(self, ticks):
        for sim in self.sims.values():
            sim.run_steps(ticks)
            assert sim.metrics.fused_path == sim.fused_path
            assert sim.metrics.fused_reason == sim.fused_reason

    @rule(pid=st.integers(0, 4), offset=st.integers(0, 60))
    def add_input(self, pid, offset):
        self.inputs += 1
        for sim in self.sims.values():
            sim.add_input(pid % self.n, sim.time + offset, ("op", self.inputs))

    @rule(kind=st.sampled_from(sorted(SPIES)))
    def attach_observer(self, kind):
        for leg, sim in self.sims.items():
            spy = SPIES[kind]()
            sim.attach_observer(spy)
            self.spies[leg].append(spy)

    @precondition(lambda self: any(self.spies[LEGS[0]]))
    @rule(data=st.data())
    def detach_observer(self, data):
        index = data.draw(st.integers(0, len(self.spies[LEGS[0]]) - 1))
        for leg, sim in self.sims.items():
            # detached spies stay in self.spies: what they saw while
            # attached must still agree at every later check
            spy = self.spies[leg][index]
            if spy in sim._observers:
                sim.detach_observer(spy)

    @rule(deep=st.booleans())
    def round_trip(self, deep):
        for leg in LEGS:
            # sim and spies travel together: the copies stay attached
            pair = (self.sims[leg], self.spies[leg])
            clone = copy.deepcopy(pair) if deep else pickle.loads(pickle.dumps(pair))
            self.sims[leg], self.spies[leg] = clone

    # -- what must hold after every rule ------------------------------------

    @invariant()
    def all_rungs_agree(self):
        if not hasattr(self, "sims"):
            return
        oracle = self.sims[LEGS[0]]
        reference = self.sims[LEGS[1]]  # the first event-engine leg
        for leg, sim in self.sims.items():
            kernel, engine = leg
            attached = [s for s in self.spies[leg] if s in sim._observers]
            assert sim.fused_path == expected_path(
                kernel, engine, self.scheduling, self.record, attached
            ), (leg, sim.fused_reason)
            assert (sim.fused_reason is None) == (sim.fused_path == "c-loop")
            if engine == "naive":
                continue
            # against the seed oracle: the run, the traffic, the pending
            # state, and every observation that is not a step (the naive
            # engine executes the idle ticks the event engine skips, so
            # step spies and the step split are compared below, among the
            # event-engine legs only)
            assert self._view(sim) == self._view(oracle), leg
            assert sim.run == oracle.run, leg
            assert self._seen(leg, steps=False) == self._seen(
                LEGS[0], steps=False
            ), leg
            assert sim.metrics == reference.metrics, leg
            assert self._seen(leg, steps=True) == self._seen(
                LEGS[1], steps=True
            ), leg

    def _seen(self, leg, *, steps: bool) -> list:
        return [
            spy.seen for spy in self.spies[leg]
            if isinstance(spy, (StepSpy, RawStepSpy)) == steps
        ]

    def _view(self, sim: Simulation) -> dict:
        net = sim.network
        metrics = sim.metrics
        view = {
            "digest": run_digest(sim),
            "time": sim.time,
            "last_live_tick": sim.last_live_tick,
            "sent": net.sent_count,
            "delivered": net.delivered_count,
            "live_pending": net.live_pending,
            "in_transit": [net.in_transit(r) for r in range(net.n)],
            "next": [net.next_delivery_time(r) for r in range(net.n)],
            "horizon": net.horizon_peek(),
            "pending_inputs": [len(queue) for queue in sim._inputs],
        }
        if self.record == "metrics":  # the level that fills RunMetrics
            view["metrics"] = (
                metrics.steps + metrics.idle_ticks_skipped,
                metrics.messages_sent, metrics.messages_received,
                metrics.timeouts_fired, metrics.inputs, metrics.outputs,
                metrics.end_time,
            )
        return view


KernelLadderMachine.TestCase.settings = settings(
    max_examples=300 if DEEP else 40,
    stateful_step_count=50 if DEEP else 20,
    deadline=None,
)
TestKernelLadder = KernelLadderMachine.TestCase


def test_the_machine_covers_the_c_loop_when_it_is_built():
    # A guard on the differential itself: with the extension built, the
    # legs include the default rung and it resolves to the C loop.
    assert LEGS[0] == ("legacy", "naive")
    assert (("compiled-loop", "event") in LEGS) == HAS_COMPILED
