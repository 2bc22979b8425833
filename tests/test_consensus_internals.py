"""Unit tests for safety-critical consensus internals.

These poke the Paxos and TOB layers directly (no simulation loop): quorum
logic, constrained value selection from promises, stale-ballot handling, the
leader's set of open instances, and out-of-order decision buffering.
"""

from repro.consensus.paxos import (
    Accept,
    AcceptedMsg,
    Forward,
    PaxosConsensusLayer,
    Prepare,
    Promise,
)
from repro.consensus.tob import TobFromConsensusLayer
from repro.core.messages import AppMessage, MessageId
from repro.sim.context import Context
from repro.sim.stack import LayerContext, ProtocolStack


def make_layer(n=3, quorum_mode="majority", fd_value=0):
    layer = PaxosConsensusLayer(quorum_mode=quorum_mode)
    stack = ProtocolStack([layer])
    stack.attach(0, n)
    ctx = LayerContext(stack, Context(pid=0, n=n, time=0, fd_value=fd_value), 0)
    return layer, ctx


class TestQuorums:
    def test_majority_quorum(self):
        layer, ctx = make_layer(n=5)
        assert not layer._is_quorum(ctx, {0, 1})
        assert layer._is_quorum(ctx, {0, 1, 2})

    def test_sigma_quorum_uses_detector(self):
        layer, ctx = make_layer(
            n=5,
            quorum_mode="sigma",
            fd_value={"omega": 0, "sigma": frozenset({3, 4})},
        )
        assert layer._is_quorum(ctx, {3, 4})
        assert layer._is_quorum(ctx, {2, 3, 4})
        assert not layer._is_quorum(ctx, {0, 3})


class TestAcceptorSafety:
    def test_promise_only_to_higher_ballots(self):
        layer, ctx = make_layer()
        layer.on_message(ctx, 1, Prepare((5, 1)))
        assert layer.promised == (5, 1)
        sent_before = len(ctx._base._outbox)
        layer.on_message(ctx, 2, Prepare((3, 2)))  # lower ballot: ignored
        assert layer.promised == (5, 1)
        assert len(ctx._base._outbox) == sent_before

    def test_promise_reports_accepted_values(self):
        layer, ctx = make_layer()
        layer.on_message(ctx, 1, Accept((2, 1), 7, "v"))
        assert layer.accepted[7] == ((2, 1), "v")
        ctx._base.drain_outbox()
        layer.on_message(ctx, 2, Prepare((9, 2)))
        sends = ctx._base.drain_outbox()
        promises = [p for __, (___, p) in sends if isinstance(p, Promise)]
        assert promises and promises[0].accepted == ((7, (2, 1), "v"),)

    def test_stale_accept_rejected(self):
        layer, ctx = make_layer()
        layer.on_message(ctx, 1, Prepare((9, 1)))
        layer.on_message(ctx, 2, Accept((2, 2), 1, "old"))  # below promise
        assert 1 not in layer.accepted

    def test_duplicate_accept_not_rebroadcast(self):
        layer, ctx = make_layer()
        layer.on_message(ctx, 1, Accept((2, 1), 1, "v"))
        ctx._base.drain_outbox()
        layer.on_message(ctx, 1, Accept((2, 1), 1, "v"))  # duplicate
        assert ctx._base.drain_outbox() == []


class TestProposerValueSelection:
    def test_constrained_value_beats_own_proposal(self):
        layer, ctx = make_layer(n=3)
        layer.my_proposals[1] = "mine"
        layer.my_ballot = (1, 0)
        layer._on_promise(ctx, 1, Promise((1, 0), ((1, (0, 2), "locked"),)))
        layer._on_promise(ctx, 2, Promise((1, 0), ()))
        assert layer.prepared
        assert layer._value_for(1) == "locked"

    def test_highest_ballot_constrains(self):
        layer, ctx = make_layer(n=3)
        layer.my_ballot = (5, 0)
        layer._on_promise(ctx, 1, Promise((5, 0), ((1, (1, 1), "old"),)))
        layer._on_promise(ctx, 2, Promise((5, 0), ((1, (3, 2), "newer"),)))
        assert layer._value_for(1) == "newer"

    def test_candidate_fallback_smallest_pid(self):
        layer, ctx = make_layer(n=3)
        layer.on_message(ctx, 2, Forward(1, "from-2"))
        layer.on_message(ctx, 1, Forward(1, "from-1"))
        assert layer._value_for(1) == "from-1"

    def test_decision_requires_quorum_of_accepted(self):
        layer, ctx = make_layer(n=3)
        layer._on_accepted(ctx, 1, AcceptedMsg((1, 0), 1, "v"))
        assert 1 not in layer.decided
        layer._on_accepted(ctx, 2, AcceptedMsg((1, 0), 1, "v"))
        assert layer.decided[1] == "v"

    def test_acks_across_ballots_do_not_mix(self):
        layer, ctx = make_layer(n=3)
        layer._on_accepted(ctx, 1, AcceptedMsg((1, 0), 1, "v"))
        layer._on_accepted(ctx, 2, AcceptedMsg((2, 0), 1, "v"))
        assert 1 not in layer.decided  # one ack per distinct ballot


class TestOpenInstances:
    """An instance the leader knows only from a phase-1 promise (no proposal
    and no forward reached it) is driven like any other, leaves the open set
    on decide, and leaves it too when a later prepare no longer reports it —
    exactly as the formula over ``my_proposals``, ``candidates`` and
    ``_constrained`` would have it."""

    @staticmethod
    def formula(layer):
        known = set(layer.my_proposals) | set(layer.candidates) | set(layer._constrained)
        return sorted(inst for inst in known if inst not in layer.decided)

    def prepared_with_promised_instance(self):
        layer, ctx = make_layer(n=3)
        layer.on_message(ctx, 1, Forward(2, "fwd"))
        layer._start_prepare(ctx)
        ballot = layer.my_ballot
        ctx._base.drain_outbox()
        layer._on_promise(ctx, 1, Promise(ballot, ((7, (0, 2), "locked"),)))
        layer._on_promise(ctx, 2, Promise(ballot, ()))
        assert layer.prepared and 7 not in layer.candidates
        return layer, ctx

    def test_promised_instance_is_driven_then_dropped_on_decide(self):
        layer, ctx = self.prepared_with_promised_instance()
        assert layer._undecided_instances() == self.formula(layer) == [2, 7]
        accepts = [
            payload for __, (___, payload) in ctx._base.drain_outbox()
            if isinstance(payload, Accept)
        ]
        assert [(a.instance, a.value) for a in accepts] == [(2, "fwd"), (7, "locked")]
        for sender in (1, 2):
            layer._on_accepted(ctx, sender, AcceptedMsg(layer.my_ballot, 7, "locked"))
        assert layer.decided[7] == "locked"
        assert layer._undecided_instances() == self.formula(layer) == [2]

    def test_promised_instance_leaves_when_a_later_prepare_omits_it(self):
        layer, ctx = self.prepared_with_promised_instance()
        layer._start_prepare(ctx)
        ballot = layer.my_ballot
        layer._on_promise(ctx, 1, Promise(ballot, ()))
        layer._on_promise(ctx, 2, Promise(ballot, ()))
        assert layer.prepared and 7 not in layer._constrained
        assert layer._undecided_instances() == self.formula(layer) == [2]


def msg(i):
    return AppMessage(MessageId(0, i), f"m{i}")


class TestTobBuffering:
    def make_tob(self):
        layer = TobFromConsensusLayer()
        stack = ProtocolStack([PaxosConsensusLayer(), layer])
        stack.attach(0, 3)
        ctx = LayerContext(stack, Context(pid=0, n=3, time=0, fd_value=0), 1)
        return layer, ctx

    def test_out_of_order_decisions_buffered(self):
        layer, ctx = self.make_tob()
        a, b = msg(0), msg(1)
        layer.on_lower_event(ctx, ("decide", 2, (b,)))
        assert layer.delivered == ()  # instance 1 still missing
        layer.on_lower_event(ctx, ("decide", 1, (a,)))
        assert [m.payload for m in layer.delivered] == ["m0", "m1"]
        assert layer.next_instance == 3

    def test_duplicate_messages_across_batches_deduped(self):
        layer, ctx = self.make_tob()
        a, b = msg(0), msg(1)
        layer.on_lower_event(ctx, ("decide", 1, (a, b)))
        layer.on_lower_event(ctx, ("decide", 2, (b,)))
        assert [m.payload for m in layer.delivered] == ["m0", "m1"]

    def test_delivered_grows_by_append_only(self):
        layer, ctx = self.make_tob()
        a, b, c = msg(0), msg(1), msg(2)
        layer.on_lower_event(ctx, ("decide", 1, (a,)))
        first = layer.delivered
        layer.on_lower_event(ctx, ("decide", 2, (c, b)))
        assert layer.delivered[: len(first)] == first
