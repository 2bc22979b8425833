"""Unit-level tests of protocol-layer internals (no simulation loop).

Driving layers directly pins down the exact clause-by-clause behaviour of
the paper's pseudocode: NewBatch contents, First(l) lookup, EIC revision
emission, and the multivalued layer's lockstep sub-instance allocation.
"""

from repro.consensus.multivalued import MultivaluedConsensusLayer
from repro.core.messages import AppMessage, MessageId
from repro.core.transformations.ec_to_eic import EcToEicLayer
from repro.core.transformations.ec_to_etob import EcToEtobLayer, Push
from repro.core.transformations.etob_to_ec import EC_PROPOSAL_TAG, EtobToEcLayer
from repro.sim.context import Context
from repro.sim.stack import Layer, LayerContext, ProtocolStack


class Sink(Layer):
    """Bottom layer recording calls from the layer under test."""

    def __init__(self):
        self.calls = []

    def on_call(self, ctx, request):
        self.calls.append(request)


def rig(layer):
    """Mount ``layer`` above a sink; return (layer, sink, ctx, base).

    Calling layer handlers directly leaves cross-layer dispatch queued in
    the stack; the returned context carries a ``drain()`` attribute tests
    call implicitly via ``act``.
    """
    sink = Sink()
    stack = ProtocolStack([sink, layer])
    stack.attach(0, 3)
    base = Context(pid=0, n=3, time=0, fd_value=0)
    ctx = LayerContext(stack, base, 1)
    ctx.drain = lambda: stack._drain(base)  # type: ignore[attr-defined]
    return layer, sink, ctx, base


def act(ctx, handler, *args):
    """Run a layer handler, then drain pending cross-layer dispatch."""
    handler(ctx, *args)
    ctx.drain()


def msg(sender, seq, payload=None):
    return AppMessage(MessageId(sender, seq), payload or f"m{sender}.{seq}")


class TestEcToEtobInternals:
    def test_new_batch_excludes_delivered_and_sorts(self):
        layer, sink, ctx, base = rig(EcToEtobLayer())
        a, b, c = msg(2, 0), msg(1, 0), msg(0, 5)
        act(ctx, layer.on_message, 1, Push(a))
        act(ctx, layer.on_message, 1, Push(b))
        act(ctx, layer.on_message, 1, Push(c))
        layer.delivered = (b,)
        assert layer._new_batch() == (c, a)  # uid-sorted, b excluded

    def test_new_batch_follows_pushes_and_decisions(self):
        """The batch is ``to_deliver - delivered`` whatever order pushes and
        decisions arrive in, extending or not."""
        layer, sink, ctx, base = rig(EcToEtobLayer())
        a, b, c = msg(0, 0), msg(1, 0), msg(2, 0)
        act(ctx, layer.on_timeout)
        act(ctx, layer.on_message, 1, Push(b))
        # Decided before its own push arrives here; the late push adds nothing.
        act(ctx, layer.on_lower_event, ("decide", 1, (a,)))
        act(ctx, layer.on_message, 0, Push(a))
        assert layer._new_batch() == (b,)
        # An extending decision drops what it delivers ...
        act(ctx, layer.on_message, 2, Push(c))
        act(ctx, layer.on_lower_event, ("decide", 2, (a, c)))
        assert sink.calls[-1] == ("propose", 3, (a, c, b))
        # ... and a decision that does not extend d_i puts it back.
        act(ctx, layer.on_lower_event, ("decide", 3, (b,)))
        assert sink.calls[-1] == ("propose", 4, (b, a, c))

    def test_first_timeout_proposes_instance_one(self):
        layer, sink, ctx, base = rig(EcToEtobLayer())
        act(ctx, layer.on_timeout)
        assert sink.calls == [("propose", 1, ())]
        act(ctx, layer.on_timeout)  # only once
        assert len(sink.calls) == 1

    def test_decide_adopts_and_proposes_next(self):
        layer, sink, ctx, base = rig(EcToEtobLayer())
        act(ctx, layer.on_timeout)
        a = msg(1, 0)
        act(ctx, layer.on_message, 1, Push(a))
        act(ctx, layer.on_lower_event, ("decide", 1, (a,)))
        assert layer.delivered == (a,)
        assert layer.count == 2
        assert sink.calls[-1] == ("propose", 2, (a,))

    def test_stale_decide_ignored(self):
        layer, sink, ctx, base = rig(EcToEtobLayer())
        layer.count = 3
        act(ctx, layer.on_lower_event, ("decide", 1, (msg(1, 0),)))
        assert layer.delivered == ()
        assert sink.calls == []


class TestEtobToEcInternals:
    def test_propose_broadcasts_tagged_pair(self):
        layer, sink, ctx, base = rig(EtobToEcLayer())
        act(ctx, layer.on_call, ("propose", 4, "val"))
        assert sink.calls == [("broadcast", (EC_PROPOSAL_TAG, 4, "val"))]
        assert layer.count == 4

    def test_first_returns_earliest_matching(self):
        layer, sink, ctx, base = rig(EtobToEcLayer())
        seq = (
            msg(0, 0, (EC_PROPOSAL_TAG, 2, "other-instance")),
            msg(1, 0, (EC_PROPOSAL_TAG, 1, "first")),
            msg(2, 0, (EC_PROPOSAL_TAG, 1, "second")),
        )
        act(ctx, layer.on_lower_event, ("deliver", seq))
        assert layer._first(1) == "first"
        assert layer._first(3) is None

    def test_timeout_decides_once(self):
        layer, sink, ctx, base = rig(EtobToEcLayer())
        act(ctx, layer.on_call, ("propose", 1, "v"))
        layer.on_lower_event(
            ctx, ("deliver", (msg(0, 0, (EC_PROPOSAL_TAG, 1, "v")),))
        )
        act(ctx, layer.on_timeout)
        act(ctx, layer.on_timeout)
        decides = [o for o in base.drain_outputs() if o[0] == "decide"]
        assert decides == [("decide", 1, "v")]


class TestEcToEicInternals:
    def test_revision_emitted_on_changed_position(self):
        layer, sink, ctx, base = rig(EcToEicLayer())
        act(ctx, layer.on_lower_event, ("decide", 2, ("a", "b")))
        base.drain_outputs()
        act(ctx, layer.on_lower_event, ("decide", 3, ("a", "B", "c")))
        outputs = base.drain_outputs()
        assert ("decide", 2, "B") in outputs  # revision of instance 2
        assert ("decide", 3, "c") in outputs  # first decision of instance 3
        assert layer.revisions == 1

    def test_propose_appends_to_decision_sequence(self):
        layer, sink, ctx, base = rig(EcToEicLayer())
        layer.decision = ["x"]
        act(ctx, layer.on_call, ("propose", 2, "y"))
        assert sink.calls == [("propose", 2, ("x", "y"))]


class TestMultivaluedInternals:
    def test_lockstep_allocation_order(self):
        layer, sink, ctx, base = rig(MultivaluedConsensusLayer())
        act(ctx, layer.on_call, ("propose", 1, "mine"))
        # First binary sub-instance: own index 0; bit 1 for our own proposal
        # only if (1, 0) is known — we are pid 0, so bit 1.
        assert sink.calls == [("propose", 0, 1)]
        assert layer._bin_meaning[0] == (1, 0, 0)

    def test_zero_bit_advances_index(self):
        layer, sink, ctx, base = rig(MultivaluedConsensusLayer())
        act(ctx, layer.on_call, ("propose", 1, "mine"))
        act(ctx, layer.on_lower_event, ("decide", 0, 0))
        assert sink.calls[-1] == ("propose", 1, 0)  # index 1: unknown -> bit 0
        assert layer._bin_meaning[1] == (1, 0, 1)

    def test_round_wraps_after_all_indices(self):
        layer, sink, ctx, base = rig(MultivaluedConsensusLayer())
        act(ctx, layer.on_call, ("propose", 1, "mine"))
        for bin_id in range(3):
            act(ctx, layer.on_lower_event, ("decide", bin_id, 0))
        assert layer._bin_meaning[3] == (1, 1, 0)  # round 1, index 0

    def test_one_bit_decides_with_known_value(self):
        layer, sink, ctx, base = rig(MultivaluedConsensusLayer())
        act(ctx, layer.on_call, ("propose", 1, "mine"))
        act(ctx, layer.on_lower_event, ("decide", 0, 1))
        outputs = base.drain_outputs()
        assert ("decide", 1, "mine") in outputs

    def test_one_bit_waits_for_unknown_value(self):
        from repro.consensus.multivalued import ProposalAnnounce

        layer, sink, ctx, base = rig(MultivaluedConsensusLayer())
        act(ctx, layer.on_call, ("propose", 1, "mine"))
        act(ctx, layer.on_lower_event, ("decide", 0, 0))  # index 0 -> no
        act(ctx, layer.on_lower_event, ("decide", 1, 1))  # index 1 -> yes, unknown
        assert not [o for o in base.drain_outputs() if o[0] == "decide"]
        # The value arrives by diffusion: decision follows.
        announced = AppMessage(MessageId(1, 0), ("mv-proposal", 1, "theirs"))
        act(ctx, layer.on_message, 1, ProposalAnnounce(announced))
        outputs = base.drain_outputs()
        assert ("decide", 1, "theirs") in outputs

    def test_early_decision_buffered_until_allocation(self):
        layer, sink, ctx, base = rig(MultivaluedConsensusLayer())
        act(ctx, layer.on_lower_event, ("decide", 0, 1))  # before any allocation
        act(ctx, layer.on_call, ("propose", 1, "mine"))
        outputs = base.drain_outputs()
        assert ("decide", 1, "mine") in outputs
