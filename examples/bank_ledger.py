#!/usr/bin/env python3
"""A replicated bank ledger: speculation, rollback, and committed prefixes.

Eventual consistency lets a replica respond before the operation order is
final. For a bank ledger that means a transfer can *speculatively* succeed
and later be re-executed in a different position — where it may fail (e.g.
insufficient funds once a conflicting withdrawal is ordered first). This demo
shows the full lifecycle on top of Algorithm 5:

- concurrent transfers against the same account during leader churn;
- replicas applying them speculatively, rolling back and re-executing when
  the delivered sequence is revised (`revised-response` outputs);
- the committed-prefix layer (paper, Section 7) marking when a prefix is
  final — responses covered by it never change again;
- convergence: all ledgers equal, money conserved.

Run:  python examples/bank_ledger.py
"""

from repro import (
    BankLedger,
    CommittedPrefixLayer,
    EtobLayer,
    FailurePattern,
    OmegaDetector,
    ProtocolStack,
    ReplicaLayer,
    Simulation,
)
from repro.sim import UniformDist


def main() -> None:
    n = 4
    pattern = FailurePattern.no_failures(n)
    detector = OmegaDetector(stabilization_time=300, pre_behavior="rotate").history(
        pattern
    )
    processes = [
        ProtocolStack(
            [EtobLayer(), CommittedPrefixLayer(), ReplicaLayer(BankLedger())]
        )
        for _ in range(n)
    ]
    sim = Simulation(
        processes,
        failure_pattern=pattern,
        detector=detector,
        delay_model=UniformDist(2, 25, seed=11),
        timeout_interval=3,
        message_batch=8,
    )

    # Fund two accounts, then race transfers that cannot all succeed.
    operations = [
        (0, 10, ("deposit", "alice", 100)),
        (1, 30, ("deposit", "bob", 10)),
        # Three concurrent transfers out of alice's 100 — at most two of
        # these 40-unit transfers can succeed.
        (1, 120, ("transfer", "alice", "bob", 40)),
        (2, 125, ("transfer", "alice", "carol", 40)),
        (3, 130, ("transfer", "alice", "dave", 40)),
        (0, 600, ("balance", "alice")),
    ]
    for pid, t, command in operations:
        sim.add_input(pid, t, ("invoke", command))

    sim.run_until(1500)

    print("Transfer outcomes as seen by their issuing replicas:")
    for pid in (1, 2, 3):
        responses = sim.run.tagged_outputs(pid, "response")
        revised = sim.run.tagged_outputs(pid, "revised-response")
        for t, (cmd_id, result) in responses:
            print(f"  p{pid} @t{t}: first response {result}")
        for t, (cmd_id, result) in revised:
            print(f"  p{pid} @t{t}: REVISED to {result} (speculation rolled back)")

    print()
    print("Final ledgers:")
    total = None
    for pid in range(n):
        replica = processes[pid].layer("replica")
        commit = processes[pid].layer("committed-prefix")
        state = dict(sorted(replica.state.items()))
        print(
            f"  p{pid}: {state} (rollbacks={replica.rollbacks}, "
            f"committed={commit.committed_length}/{len(replica.applied_seq)})"
        )
        total = sum(state.values())
    print()
    states = {repr(dict(sorted(processes[p].layer('replica').state.items()))) for p in range(n)}
    print(f"All ledgers equal: {len(states) == 1}")
    print(f"Money conserved (should be 110): {total}")
    succeeded = sum(
        1
        for pid in (1, 2, 3)
        for __, (cmd, result) in sim.run.tagged_outputs(pid, "response")
        if result is True
    )
    print("(exactly two of the three 40-unit transfers can finally succeed)")


if __name__ == "__main__":
    main()
