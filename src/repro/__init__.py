"""repro — The Weakest Failure Detector for Eventual Consistency (PODC 2015).

A complete executable reproduction of Dubois, Guerraoui, Kuznetsov, Petit and
Sens: eventual consensus (EC) and eventual total order broadcast (ETOB) from
the Omega failure detector, the transformations proving EC = ETOB and
EC = EIC, the CHT-style extraction showing Omega is *necessary* for EC, and
the strong-consistency baselines (Paxos from Omega with majority or Sigma
quorums) that exhibit the exact gap — Sigma, and one message delay — between
consistency and eventual consistency.

Quick start::

    from repro import (
        EtobLayer, ProtocolStack, Simulation, FailurePattern, OmegaDetector,
    )

    n = 5
    pattern = FailurePattern.no_failures(n)
    omega = OmegaDetector(stabilization_time=100).history(pattern)
    procs = [ProtocolStack([EtobLayer()]) for _ in range(n)]
    sim = Simulation(procs, failure_pattern=pattern, detector=omega)
    sim.add_input(0, 10, ("broadcast", "hello"))
    sim.run_until(500)

See ``examples/`` for full scenarios, ``DESIGN.md`` for the system inventory
and ``EXPERIMENTS.md`` for the claim-by-claim reproduction record.
"""

from repro.consensus import (
    PaxosConsensusLayer,
    TobFromConsensusLayer,
)
from repro.core import (
    AppMessage,
    CausalGraph,
    EcDriverLayer,
    EcUsingOmegaLayer,
    EicDriverLayer,
    EicUsingOmegaLayer,
    EtobLayer,
    MessageId,
)
from repro.core.transformations import (
    EcToEicLayer,
    EcToEtobLayer,
    EicToEcLayer,
    EtobToEcLayer,
)
from repro.detectors import (
    CompositeDetector,
    OmegaDetector,
    SigmaDetector,
)
from repro.detectors.heartbeat import HeartbeatOmegaLayer, HeartbeatOmegaProcess
from repro.properties import (
    check_causal_order,
    check_ec,
    check_eic,
    check_etob,
    check_tob,
)
from repro.replication import (
    BankLedger,
    ClientProcess,
    ClientServingLayer,
    CommittedPrefixLayer,
    Counter,
    KvStore,
    ReplicaLayer,
)
from repro.sim import (
    Environment,
    FailurePattern,
    FixedDelay,
    Layer,
    Network,
    Process,
    ProtocolStack,
    Simulation,
)

__version__ = "1.0.0"

__all__ = [
    "AppMessage",
    "BankLedger",
    "CausalGraph",
    "ClientProcess",
    "ClientServingLayer",
    "CommittedPrefixLayer",
    "CompositeDetector",
    "Counter",
    "EcDriverLayer",
    "EcToEicLayer",
    "EcToEtobLayer",
    "EcUsingOmegaLayer",
    "EicDriverLayer",
    "EicToEcLayer",
    "EicUsingOmegaLayer",
    "Environment",
    "EtobLayer",
    "EtobToEcLayer",
    "FailurePattern",
    "FixedDelay",
    "HeartbeatOmegaLayer",
    "HeartbeatOmegaProcess",
    "KvStore",
    "Layer",
    "MessageId",
    "Network",
    "OmegaDetector",
    "PaxosConsensusLayer",
    "Process",
    "ProtocolStack",
    "ReplicaLayer",
    "SigmaDetector",
    "Simulation",
    "TobFromConsensusLayer",
    "check_causal_order",
    "check_ec",
    "check_eic",
    "check_etob",
    "check_tob",
]
