"""Engine benchmark: idle-tick fast-forwarding on a sparse-traffic run.

The regime that matters for Omega-style detectors is long stabilization:
hundreds of thousands of ticks in which almost nothing happens. The seed
engine paid full step cost (context construction, detector query, StepRecord
allocation, run bookkeeping) on every single tick and retained every step
record forever. The event engine jumps over idle stretches; the acceptance
bar for the refactor is a >= 3x wall-clock speedup at ``record="metrics"``
on a sparse run (2 broadcasts over 100k ticks), versus the seed-equivalent
configuration (naive stepping, full recording).
"""

from __future__ import annotations

import time

from repro.core import EtobLayer
from repro.detectors import OmegaDetector
from repro.sim import FailurePattern, FixedDelay, ProtocolStack, Simulation

TICKS = 100_000
REQUIRED_SPEEDUP = 3.0


def sparse_etob_sim(
    *, engine: str, record: str, scheduling: str = "round_robin"
) -> Simulation:
    """ETOB, stable leader, 2 broadcasts over 100k ticks, slow timers."""
    n = 4
    pattern = FailurePattern.no_failures(n)
    detector = OmegaDetector(stabilization_time=0).history(pattern, seed=1)
    sim = Simulation(
        [ProtocolStack([EtobLayer()]) for _ in range(n)],
        failure_pattern=pattern,
        detector=detector,
        delay_model=FixedDelay(2),
        timeout_interval=512,
        seed=1,
        scheduling=scheduling,
        engine=engine,
        record=record,
    )
    sim.add_input(1, 100, ("broadcast", "sparse-1"))
    sim.add_input(2, 50_000, ("broadcast", "sparse-2"))
    return sim


def timed_run(
    *, engine: str, record: str, scheduling: str = "round_robin"
) -> tuple[Simulation, float]:
    sim = sparse_etob_sim(engine=engine, record=record, scheduling=scheduling)
    start = time.perf_counter()
    sim.run_until(TICKS)
    return sim, time.perf_counter() - start


def test_fast_forward_speedup_on_sparse_run():
    seed_sim, seed_time = timed_run(engine="naive", record="full")
    event_sim, event_time = timed_run(engine="event", record="metrics")

    # Identical trajectory: the speedup does not change what was computed.
    assert event_sim.network.sent_count == seed_sim.network.sent_count
    assert event_sim.network.delivered_count == seed_sim.network.delivered_count
    assert event_sim.metrics.inputs == 2

    speedup = seed_time / event_time
    print(
        f"\nsparse 100k-tick run: naive-full {seed_time:.3f}s, "
        f"event-metrics {event_time:.4f}s -> {speedup:.1f}x "
        f"({event_sim.metrics.idle_ticks_skipped} idle ticks skipped, "
        f"{event_sim.metrics.steps} steps executed)"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"fast-forward speedup degraded: {speedup:.2f}x < {REQUIRED_SPEEDUP}x"
    )


def test_random_schedule_event_vs_naive_speedup():
    """End-to-end: event engine at metrics fidelity vs the seed-equivalent
    naive-full configuration, now under random scheduling too."""
    naive_sim, naive_time = timed_run(
        engine="naive", record="full", scheduling="random"
    )
    event_sim, event_time = timed_run(
        engine="event", record="metrics", scheduling="random"
    )
    assert event_sim.network.sent_count == naive_sim.network.sent_count
    speedup = naive_time / event_time
    print(
        f"\nrandom-schedule sparse run: naive-full {naive_time:.3f}s, "
        f"event-metrics {event_time:.4f}s -> {speedup:.1f}x"
    )
    assert speedup >= REQUIRED_SPEEDUP


def test_full_fidelity_event_engine_is_not_slower():
    """Even materializing idle records, the event engine must not regress."""
    naive_sim, naive_time = timed_run(engine="naive", record="full")
    event_sim, event_time = timed_run(engine="event", record="full")
    assert naive_sim.run == event_sim.run
    # Generous bound: equality of records is the hard requirement; wall-clock
    # parity (it skips context construction and queue probing) the soft one.
    assert event_time <= naive_time * 1.2
