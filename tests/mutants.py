"""Protocol mutants: test-only subclasses that each remove one step the
paper or the algorithm needs, and name the checker verdict that must catch
it.

Digest equality across kernels shows that the paths agree; a checker that
passes shows a property holds. Neither shows that the checker can fail.
Each mutant here is a run that must fail one named verdict, on the cells
listed beside the test that runs it. A mutant that no cell kills is a
finding about the workload, not about the mutant.

Each mutant also has a test-only protocol name (:data:`MUTANT_PROTOCOLS`),
so a :class:`~repro.sim.replay.RunSpec` can name it like any registered
protocol. A test registers the names for its own duration only
(:func:`register_mutants`), so no other test sees them in
:data:`repro.protocols.PROTOCOLS`.
"""

from __future__ import annotations

from typing import Any

from repro.consensus import PaxosConsensusLayer, TobFromConsensusLayer
from repro.consensus.paxos import Accept, AcceptedMsg
from repro.core import EcDriverLayer, EcUsingOmegaLayer
from repro.core.etob import EtobLayer, PromoteSequence
from repro.detectors.omega import OmegaHistory
from repro.protocols import PROTOCOLS, ProtocolEntry
from repro.replication import ReplicaLayer
from repro.sim.failures import FailurePattern
from repro.sim.stack import LayerContext
from repro.sim.types import ProcessId, Time


class SigmaLearnerWithoutRetest(PaxosConsensusLayer):
    """Σ-quorum Paxos whose learners test an ack set only when an ack
    arrives, never again on a timeout.

    A learner whose Σ output named a process that had not acked the ballot
    is stranded once Σ settles on a quorum that had: no further ack comes,
    so nothing decides the instance, and the broadcasts it carries are
    never delivered. Killed by ``check_tob``'s validity ("p3 never stably
    delivered its own m3.1" and similar).
    """

    def _retest_acks(self, ctx: LayerContext) -> None:
        pass


def _tob_without_retest(quorum_mode: str = "majority") -> list:
    return [SigmaLearnerWithoutRetest(quorum_mode=quorum_mode), TobFromConsensusLayer()]


class PaxosAcceptWithoutPromiseCheck(PaxosConsensusLayer):
    """Paxos whose acceptor takes every ``Accept``, without testing its
    ballot against the highest one it promised.

    The rest is the real accept branch. A leader whose ballot a newer
    one has overtaken can then still gather a quorum of accepts for its
    value after the newer leader chose another, so two processes decide
    differently in one instance. Killed by ``check_tob`` (see the test
    that runs it for the verdicts and cells).
    """

    def on_message(self, ctx: LayerContext, sender: ProcessId, payload: Any) -> None:
        if not isinstance(payload, Accept):
            super().on_message(ctx, sender, payload)
            return
        self.max_epoch_seen = max(self.max_epoch_seen, payload.ballot[0])
        self.promised = payload.ballot
        already = self.accepted.get(payload.instance)
        if already == (payload.ballot, payload.value):
            return
        self.accepted[payload.instance] = (payload.ballot, payload.value)
        ctx.send_all(
            AcceptedMsg(payload.ballot, payload.instance, payload.value),
            include_self=True,
        )


class PaxosLearnerPoolsAcksAcrossBallots(PaxosConsensusLayer):
    """Paxos whose learner decides an ``Accepted`` value once the acks of
    its instance, pooled over every ballot, form a quorum.

    A quorum must ack one ballot: each acceptor acks one value per ballot,
    so only one ballot's ack set says which value a quorum accepted. Pooled,
    acks for two values under two ballots add up to a quorum that accepted
    neither, each learner decides the value of the ack that completed its
    pool, and two learners decide an instance differently. Killed by
    ``check_etob``'s total order (see the test that runs it for the
    verdicts and cells).
    """

    def _on_accepted(self, ctx: LayerContext, sender: ProcessId, msg: AcceptedMsg) -> None:
        if msg.instance in self.decided:
            return
        by_ballot = self._accept_acks.setdefault(msg.instance, {})
        by_ballot.setdefault(msg.ballot, (msg.value, set()))[1].add(sender)
        pooled = set().union(*(acks for __, acks in by_ballot.values()))
        if self._is_quorum(ctx, pooled):
            self._decide(ctx, msg.instance, msg.value)


class EtobDuplicateDelivery(EtobLayer):
    """Algorithm 5 whose follower adopts each promote with its last message
    repeated.

    Everything else is the real promote branch: the per-sender epoch filter
    and adoption from the trusted leader only. Killed by ``check_etob``'s
    no-duplication verdict ("no-duplication: p1@t10 has duplicates" and
    similar).
    """

    def on_message(self, ctx: LayerContext, sender: ProcessId, payload: Any) -> None:
        if isinstance(payload, PromoteSequence) and payload.sequence:
            payload = PromoteSequence(
                payload.sequence + payload.sequence[-1:], payload.epoch
            )
        super().on_message(ctx, sender, payload)


class EcDecidesFirstProposal(EcUsingOmegaLayer):
    """Algorithm 4 whose timeout decides the first promote it holds for
    ``count_i``, from any sender, without asking Ω.

    Processes that hold different first promotes decide differently, and
    nothing ever brings them back together. Killed by ``check_ec``'s
    agreement index (past the last common instance, so ``ok`` is false).
    Under ``FixedDelay`` every process holds p0's promote first (p0 steps
    first and every link is equally slow), so the mutant agrees by accident
    there: it takes reordering links, such as the ``uniform`` environment.
    """

    def on_timeout(self, ctx: LayerContext) -> None:
        instance = self.count
        if instance is None or instance in self.decided:
            return
        for (__, held), value in self.received.items():
            if held == instance:
                self.decided.add(instance)
                ctx.emit_upper(("decide", instance, value))
                return


class OmegaNeverStabilises(OmegaHistory):
    """An Ω history that keeps rotating among the correct processes past
    its stabilization time, each process a phase ahead of the one below it.

    With two correct processes or more they never agree on a leader, so
    Ω's eventual leadership never holds. ``settles()`` is None: no
    simulation may stop querying it at a settle tick that does not exist.
    Killed by ``check_omega_history`` ("never stabilized within horizon").
    A detector history is not a protocol, so it has no protocol name, and
    no live monitor checks one.
    """

    def __init__(self, pattern: FailurePattern, **kwargs: Any) -> None:
        super().__init__(pattern, **kwargs)
        self._rotation = sorted(pattern.correct)

    def query(self, pid: ProcessId, t: Time) -> ProcessId:
        rotation = self._rotation
        return rotation[(t // self.churn_period + pid) % len(rotation)]

    def settles(self) -> None:
        return None


class ReplicaAppliesUncommittedSuffix(ReplicaLayer):
    """A KV replica that treats every command it has applied as committed:
    each delivery's commands past that length are applied on top, and a
    delivered sequence that reorders or replaces the applied suffix never
    rolls it back.

    Before Ω stabilises ETOB may deliver a sequence that does not extend
    the last one, so the replica's state drifts from the sequence it was
    delivered and from the other replicas. Killed by
    ``test_incremental_differential.replica_violations`` ("p0: state ...
    is not its delivered sequence applied in order"). A replica sits
    above a broadcast stack rather than in the protocol registry, so it
    has no protocol name, and no live monitor checks a replica yet.
    """

    def _adopt(self, ctx: LayerContext, sequence: tuple) -> None:
        applied = self.applied_seq
        super()._adopt(ctx, applied + sequence[len(applied):])


#: test-only protocol name -> the registry entry of one mutant.
MUTANT_PROTOCOLS = {
    "ec-decides-first-proposal": ProtocolEntry(
        lambda instances=10: [
            EcDecidesFirstProposal(), EcDriverLayer(max_instances=instances)
        ]
    ),
    "etob-duplicate-delivery": ProtocolEntry(lambda: [EtobDuplicateDelivery()]),
    "tob-consensus-accept-without-promise-check": ProtocolEntry(
        lambda: [PaxosAcceptWithoutPromiseCheck(), TobFromConsensusLayer()],
        PROTOCOLS["tob-consensus"].components,
    ),
    "tob-consensus-pooled-acks": ProtocolEntry(
        lambda: [PaxosLearnerPoolsAcksAcrossBallots(), TobFromConsensusLayer()],
        PROTOCOLS["tob-consensus"].components,
    ),
    "tob-consensus-without-retest": ProtocolEntry(
        _tob_without_retest,
        PROTOCOLS["tob-consensus"].components,
    ),
}


def register_mutants(monkeypatch) -> None:
    """Register every mutant's protocol name until the test ends."""
    for name, entry in MUTANT_PROTOCOLS.items():
        monkeypatch.setitem(PROTOCOLS, name, entry)
