"""Multi-instance Paxos synod with an Omega-driven proposer.

This is the strong-consistency baseline of the experiments. Safety is
classical Paxos; liveness comes from Omega: the process that trusts itself
leader runs phase 1 once (a window prepare covering all instances) and then
drives phase 2 per instance, retrying with a higher ballot when pre-empted.

Quorums are pluggable:

- ``"majority"`` — sets of more than ``n/2`` processes; pairwise intersection
  is automatic, but liveness requires a correct majority (this is exactly the
  assumption the paper's ETOB avoids);
- ``"sigma"`` — a set counts as a quorum when it contains the current output
  of the Sigma failure detector; intersection is Sigma's perpetual property
  and liveness follows from Sigma's eventual accuracy, so consensus works in
  **any** environment where Sigma is available (the paper's Omega + Sigma
  configuration). An ack set is tested when an ack arrives *and* again on
  every timeout while its instance is open: Sigma may name a process that
  never acks (before it stabilises, or a crashed member) at the moment the
  last ack arrives, and the leader, having decided, never re-drives the
  instance. Any two Sigma outputs intersect whenever and wherever they are
  read, so a late test is as safe as a timely one.

Steps with a stable leader (the three communication steps the paper credits
to strong consistency): proposer forwards its value to the leader (1), the
leader sends ``accept`` (2), acceptors send ``accepted`` to all (3) — decide.

Calls / inputs: ``("propose", instance, value)`` with integer instances.
Events: ``("decide", instance, value)`` for every instance whose decision this
process learns (not only instances it proposed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim.errors import ProtocolError
from repro.sim.stack import Layer, LayerContext, OmegaSource
from repro.sim.types import ProcessId

Ballot = tuple[int, int]  # (epoch, proposer pid); lexicographic order

NO_BALLOT: Ballot = (-1, -1)


@dataclass(frozen=True)
class Forward:
    """A proposal forwarded to everyone so any (future) leader has candidates."""

    instance: int
    value: Any


@dataclass(frozen=True)
class Prepare:
    """Phase-1a: window prepare covering every instance."""

    ballot: Ballot


@dataclass(frozen=True)
class Promise:
    """Phase-1b: promise plus all previously accepted (instance, ballot, value)."""

    ballot: Ballot
    accepted: tuple[tuple[int, Ballot, Any], ...]


@dataclass(frozen=True)
class Accept:
    """Phase-2a."""

    ballot: Ballot
    instance: int
    value: Any


@dataclass(frozen=True)
class AcceptedMsg:
    """Phase-2b, sent to every process (all processes are learners)."""

    ballot: Ballot
    instance: int
    value: Any


class PaxosConsensusLayer(Layer):
    """Multi-instance Paxos for one process."""

    name = "paxos"

    #: initial ticks without progress before the leader escalates its ballot;
    #: doubles on every escalation (covers arbitrary unknown round trips) and
    #: resets on every decision.
    INITIAL_PATIENCE = 32

    def __init__(
        self,
        *,
        quorum_mode: str = "majority",
        omega_source: OmegaSource = None,
    ) -> None:
        if quorum_mode not in ("majority", "sigma"):
            raise ValueError(f"unknown quorum mode {quorum_mode!r}")
        self.quorum_mode = quorum_mode
        self._set_omega_source(omega_source)

        # acceptor state
        self.promised: Ballot = NO_BALLOT
        self.accepted: dict[int, tuple[Ballot, Any]] = {}

        # proposer state
        self.my_ballot: Ballot | None = None
        self.prepared = False
        self._promises: dict[ProcessId, tuple[tuple[int, Ballot, Any], ...]] = {}
        self._constrained: dict[int, tuple[Ballot, Any]] = {}
        self._patience = self.INITIAL_PATIENCE
        self._phase_started = 0
        self._was_leader = False
        self.max_epoch_seen = 0

        # shared state
        self.my_proposals: dict[int, Any] = {}
        self.candidates: dict[int, dict[ProcessId, Any]] = {}
        #: per undecided instance, per ballot: the value accepted under
        #: that ballot and the acceptors that acked it. An instance's entry
        #: goes when it is decided, so a Sigma learner's re-test on timeout
        #: walks the open instances only.
        self._accept_acks: dict[int, dict[Ballot, tuple[Any, set[ProcessId]]]] = {}
        self._accepts_sent: set[tuple[Ballot, int]] = set()
        self.decided: dict[int, Any] = {}
        #: The undecided keys of ``candidates`` and of ``_constrained``: the
        #: instances a prepared leader drives (``my_proposals`` needs no set
        #: of its own, its keys are a subset of ``candidates``'). Kept as
        #: handlers run so a timeout never scans the whole instance history.
        self._open: set[int] = set()
        self._open_constrained: set[int] = set()

    # -- quorums -------------------------------------------------------------------

    def _is_quorum(self, ctx: LayerContext, members: set[ProcessId]) -> bool:
        if self.quorum_mode == "majority":
            return len(members) > ctx.n // 2
        return ctx.sigma() <= members

    # -- interface -------------------------------------------------------------------

    def on_call(self, ctx: LayerContext, request: Any) -> None:
        if not (isinstance(request, tuple) and request and request[0] == "propose"):
            raise ProtocolError(f"paxos cannot handle call {request!r}")
        __, instance, value = request
        if not isinstance(instance, int):
            raise ProtocolError(f"paxos instances must be ints, got {instance!r}")
        self.my_proposals.setdefault(instance, value)
        self.candidates.setdefault(instance, {})[ctx.pid] = value
        if instance not in self.decided:
            self._open.add(instance)
        ctx.send_all(Forward(instance, value), include_self=False)
        if self.prepared and self._omega(ctx) == self.pid:
            self._drive_instances(ctx)

    def on_input(self, ctx: LayerContext, value: Any) -> None:
        self.on_call(ctx, value)

    # -- message handlers ----------------------------------------------------------------

    def on_message(self, ctx: LayerContext, sender: ProcessId, payload: Any) -> None:
        if isinstance(payload, Forward):
            self.candidates.setdefault(payload.instance, {})[sender] = payload.value
            if payload.instance not in self.decided:
                self._open.add(payload.instance)
            if self.prepared and self._omega(ctx) == self.pid:
                # A stable, prepared leader accepts new proposals immediately,
                # giving the canonical three-step decision latency.
                self._drive_instances(ctx)
        elif isinstance(payload, Prepare):
            self.max_epoch_seen = max(self.max_epoch_seen, payload.ballot[0])
            if payload.ballot > self.promised:
                self.promised = payload.ballot
                entries = tuple(
                    (inst, ballot, value)
                    for inst, (ballot, value) in sorted(self.accepted.items())
                )
                ctx.send(sender, Promise(payload.ballot, entries))
        elif isinstance(payload, Promise):
            self._on_promise(ctx, sender, payload)
        elif isinstance(payload, Accept):
            self.max_epoch_seen = max(self.max_epoch_seen, payload.ballot[0])
            if payload.ballot >= self.promised:
                self.promised = payload.ballot
                already = self.accepted.get(payload.instance)
                if already == (payload.ballot, payload.value):
                    return  # duplicate accept; the acknowledgement is in flight
                self.accepted[payload.instance] = (payload.ballot, payload.value)
                ctx.send_all(
                    AcceptedMsg(payload.ballot, payload.instance, payload.value),
                    include_self=True,
                )
        elif isinstance(payload, AcceptedMsg):
            self._on_accepted(ctx, sender, payload)

    def _on_promise(self, ctx: LayerContext, sender: ProcessId, msg: Promise) -> None:
        if self.prepared or msg.ballot != self.my_ballot:
            return
        self._promises[sender] = msg.accepted
        if self._is_quorum(ctx, set(self._promises)):
            self.prepared = True
            self._constrained = {}
            for entries in self._promises.values():
                for inst, ballot, value in entries:
                    current = self._constrained.get(inst)
                    if current is None or ballot > current[0]:
                        self._constrained[inst] = (ballot, value)
            self._open_constrained = {
                inst for inst in self._constrained if inst not in self.decided
            }
            self._drive_instances(ctx)

    def _on_accepted(self, ctx: LayerContext, sender: ProcessId, msg: AcceptedMsg) -> None:
        if msg.instance in self.decided:
            return
        by_ballot = self._accept_acks.setdefault(msg.instance, {})
        __, acks = by_ballot.setdefault(msg.ballot, (msg.value, set()))
        acks.add(sender)
        if self._is_quorum(ctx, acks):
            self._decide(ctx, msg.instance, msg.value)

    def _decide(self, ctx: LayerContext, instance: int, value: Any) -> None:
        self.decided[instance] = value
        del self._accept_acks[instance]
        self._open.discard(instance)
        self._open_constrained.discard(instance)
        self._patience = self.INITIAL_PATIENCE
        self._phase_started = -1  # restart the clock at the next timeout
        ctx.emit_upper(("decide", instance, value))

    def _retest_acks(self, ctx: LayerContext) -> None:
        """Decide, in instance order, each open instance with a ballot
        whose ack set now contains the current Sigma output."""
        quorum = ctx.sigma()
        for instance in sorted(self._accept_acks):
            for value, acks in self._accept_acks[instance].values():
                if quorum <= acks:
                    self._decide(ctx, instance, value)
                    break

    # -- leader duties ----------------------------------------------------------------------

    def _undecided_instances(self) -> list[int]:
        """Every instance proposed, forwarded or constrained by the last
        prepare, and not decided, in ascending order."""
        return sorted(self._open | self._open_constrained)

    def _value_for(self, instance: int) -> Any | None:
        constrained = self._constrained.get(instance)
        if constrained is not None:
            return constrained[1]
        if instance in self.my_proposals:
            return self.my_proposals[instance]
        candidates = self.candidates.get(instance)
        if candidates:
            return candidates[min(candidates)]
        return None

    def _start_prepare(self, ctx: LayerContext) -> None:
        epoch = self.max_epoch_seen + 1
        self.my_ballot = (epoch, ctx.pid)
        self.max_epoch_seen = epoch
        self.prepared = False
        self._promises = {}
        self._phase_started = ctx.time
        ctx.send_all(Prepare(self.my_ballot), include_self=True)

    def _drive_instances(self, ctx: LayerContext) -> None:
        assert self.my_ballot is not None
        for instance in self._undecided_instances():
            key = (self.my_ballot, instance)
            if key in self._accepts_sent:
                continue  # already in flight under this ballot
            value = self._value_for(instance)
            if value is not None:
                self._accepts_sent.add(key)
                ctx.send_all(Accept(self.my_ballot, instance, value), include_self=True)

    def _stalled(self, ctx: LayerContext) -> bool:
        """No progress for longer than the (backing-off) patience window."""
        if self._phase_started < 0:
            self._phase_started = ctx.time
            return False
        return ctx.time - self._phase_started > self._patience

    def _escalate(self, ctx: LayerContext) -> None:
        self._patience *= 2
        self._start_prepare(ctx)

    def on_timeout(self, ctx: LayerContext) -> None:
        if self.quorum_mode == "sigma" and self._accept_acks:
            self._retest_acks(ctx)
        if self._omega(ctx) != self.pid:
            self._was_leader = False
            return
        if not self._was_leader:
            # Just (re)gained leadership: run phase 1 afresh — acceptors may
            # have promised a higher ballot in the meantime.
            self._was_leader = True
            self._start_prepare(ctx)
            return
        if not self.prepared:
            if self._stalled(ctx):
                self._escalate(ctx)
            return
        if self._open or self._open_constrained:
            if self._stalled(ctx):
                self._escalate(ctx)
                return
            self._drive_instances(ctx)
        else:
            self._phase_started = ctx.time
