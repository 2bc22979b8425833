#!/usr/bin/env python3
"""Quickstart: eventual total order broadcast from Omega (Algorithm 5).

Five processes run the paper's ETOB protocol. Omega misbehaves (rotating,
disagreeing leaders) until t=250, then stabilizes; one process crashes along
the way. Messages broadcast throughout are eventually delivered by every
correct process in the same order — and the run is checked against the full
ETOB specification, which also reports the discovered stabilization time.

Run:  python examples/quickstart.py
"""

from repro import (
    EtobLayer,
    FailurePattern,
    OmegaDetector,
    ProtocolStack,
    Simulation,
    check_etob,
)
from repro.core.messages import payloads
from repro.properties import extract_timeline
from repro.sim import UniformDist


def main() -> None:
    n = 5
    # p4 crashes at t=300; everybody else is correct.
    pattern = FailurePattern.crash(n, {4: 300})

    # An Omega history: scripted disagreement before t=250, then the same
    # correct leader everywhere (the least-id correct process, p0).
    omega = OmegaDetector(stabilization_time=250, pre_behavior="rotate").history(
        pattern
    )

    processes = [ProtocolStack([EtobLayer()]) for _ in range(n)]
    sim = Simulation(
        processes,
        failure_pattern=pattern,
        detector=omega,
        delay_model=UniformDist(2, 40, seed=3),
        timeout_interval=2,
    )

    # Concurrent bursts of broadcasts before, during, and after the churn
    # window — including one from the process that is about to crash.
    i = 0
    for burst_time in (20, 90, 160, 280, 400, 500):
        for pid in range(n):
            if pattern.crash_time(pid) is not None and burst_time >= pattern.crash_time(pid):
                continue
            sim.add_input(pid, burst_time + pid, ("broadcast", f"msg-{i} (from p{pid})"))
            i += 1

    sim.run_until(1500)

    timeline = extract_timeline(sim.run)
    finals = {
        pid: payloads(timeline.final_sequence(pid)) for pid in pattern.correct
    }
    identical = len({f for f in finals.values()}) == 1
    print(f"Correct processes deliver identical sequences: {identical}")
    print(f"p0's final sequence ({len(finals[0])} messages):")
    for item in finals[0]:
        print(f"    {item}")

    report = check_etob(sim.run)
    print()
    print(f"ETOB specification satisfied: {report.ok}")
    print(f"  stability violations before stabilization: {report.stability_violations}")
    print(f"  order violations before stabilization:     {report.order_violations}")
    print(f"  discovered stabilization time tau:         {report.tau}")
    print(f"  (Omega stabilized at t=250; the paper bounds tau by")
    print(f"   tau_Omega + local timeout + message delay)")


if __name__ == "__main__":
    main()
