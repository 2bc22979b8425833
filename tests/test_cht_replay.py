"""Tests for the CHT replay sandbox."""

import gc

import pytest

from repro.cht import SampleDag, TreeBounds, extract_leader
from repro.cht.replay import InputNeeded, ReplaySandbox
from repro.core import EcDriverLayer, EcUsingOmegaLayer
from repro.core.ec import Promote
from repro.sim import Process, ProtocolStack
from repro.sim.context import Context
from repro.sim.errors import ConfigurationError


def ec_factory(proposal_fn):
    return ProtocolStack(
        [EcUsingOmegaLayer(), EcDriverLayer(proposal_fn, max_instances=2)]
    )


class TestSandbox:
    def test_first_step_demands_first_input(self):
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        with pytest.raises(InputNeeded) as exc:
            sandbox.execute(state, 0, 0, deliver=False, inputs={})
        assert exc.value.key == (0, 1)

    def test_step_with_input_sends_promote(self):
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        state = sandbox.execute(state, 0, 0, deliver=False, inputs={(0, 1): 1})
        # Algorithm 4 broadcasts promote(v, 1) to all, including itself.
        assert state.pending_for(0) == 1
        assert state.pending_for(1) == 1
        assert state.steps_taken == 1

    def test_aborted_step_leaves_state_reusable(self):
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        with pytest.raises(InputNeeded):
            sandbox.execute(state, 0, 0, deliver=False, inputs={})
        # Same state, now with the input: must work exactly as a fresh run.
        after = sandbox.execute(state, 0, 0, deliver=False, inputs={(0, 1): 0})
        assert after.pending_for(1) == 1

    def test_branching_same_state_two_inputs(self):
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        s0 = sandbox.execute(state, 0, 0, deliver=False, inputs={(0, 1): 0})
        s1 = sandbox.execute(state, 0, 0, deliver=False, inputs={(0, 1): 1})
        # Both branches exist independently; the original is untouched.
        assert state.steps_taken == 0
        assert s0.steps_taken == s1.steps_taken == 1

    def test_automata_are_frozen_bytes_shared_by_branches(self):
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        assert all(type(frozen) is bytes for frozen in state.automata)
        before = state.automata
        s0 = sandbox.execute(state, 0, 0, deliver=False, inputs={(0, 1): 0})
        s1 = sandbox.execute(state, 0, 0, deliver=False, inputs={(0, 1): 1})
        # One frozen state, two inputs, two different promotes...
        assert s0.buffers[1] == ((0, (0, Promote(0, 1))),)
        assert s1.buffers[1] == ((0, (0, Promote(1, 1))),)
        assert type(s0.automata[0]) is bytes and s0.automata[0] != before[0]
        # ...and neither the parent state nor the untouched sibling moved.
        assert state.automata == before
        assert s0.automata[1] is s1.automata[1] is before[1]

    def test_thawed_automaton_reaches_its_own_sandbox_table(self):
        sandbox, other = ReplaySandbox(2, ec_factory), ReplaySandbox(2, ec_factory)
        frozen = sandbox.initial_state().automata[0]
        for __ in range(2):  # every thaw is a fresh instance on the same table
            driver = sandbox.thaw(frozen).layer(EcDriverLayer)
            assert driver.proposal_fn.__self__ is sandbox._inputs
        assert sandbox.thaw(frozen) is not sandbox.thaw(frozen)
        # The bytes carry a token, not a table: another sandbox thaws them
        # onto *its* table.
        driver = other.thaw(frozen).layer(EcDriverLayer)
        assert driver.proposal_fn.__self__ is other._inputs

    def test_unpicklable_state_fails_at_construction(self):
        def factory(proposal_fn):
            layer = EcDriverLayer(proposal_fn, max_instances=2)
            layer.on_decide = lambda value: None
            return ProtocolStack([EcUsingOmegaLayer(), layer])

        with pytest.raises(ConfigurationError, match=r"layers\[1\]\.on_decide"):
            ReplaySandbox(2, factory)

    def test_full_decision_path(self):
        # p0 proposes 1; its promote reaches p1; p1 (trusting leader 0)
        # decides p0's value in instance 1.
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        state = sandbox.execute(state, 0, 0, deliver=False, inputs={(0, 1): 1})
        # Deciding instance 1 makes the driver propose instance 2 within the
        # same step, so the instance-2 inputs must be available too.
        inputs = {(0, 1): 1, (1, 1): 0, (0, 2): 0, (1, 2): 1}
        state = sandbox.execute(state, 1, 0, deliver=False, inputs=inputs)  # p1 proposes 0
        state = sandbox.execute(state, 1, 0, deliver=True, inputs=inputs)  # receives promote
        # p1's oldest pending message is p0's promote; after consuming it the
        # timeout clause decides instance 1 with p0's value... unless p1's own
        # promote arrived first (FIFO). Drain until a decision appears.
        guard = 0
        while not state.decisions and guard < 4:
            if state.pending_for(1):
                state = sandbox.execute(state, 1, 0, deliver=True, inputs=inputs)
            guard += 1
        assert state.decisions, "p1 never decided"
        decision = state.decisions[0]
        assert decision.pid == 1
        assert decision.instance == 1
        assert decision.value == 1  # the leader's proposal

    def test_lambda_step_without_pending_ok(self):
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        state = sandbox.execute(state, 1, 1, deliver=False, inputs={(1, 1): 0})
        assert state.started[1]

    def test_deliver_without_pending_raises(self):
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        with pytest.raises(ValueError):
            sandbox.execute(state, 0, 0, deliver=True, inputs={(0, 1): 0})

    def test_steps_of_different_processes_commute_and_share_bytes(self):
        sandbox = ReplaySandbox(2, ec_factory)
        root = sandbox.initial_state()
        inputs = {(0, 1): 1, (1, 1): 0}
        p_then_q = sandbox.execute(
            sandbox.execute(root, 0, 0, False, inputs), 1, 0, False, inputs
        )
        q_then_p = sandbox.execute(
            sandbox.execute(root, 1, 0, False, inputs), 0, 0, False, inputs
        )
        # S.e_p.e_q and S.e_q.e_p: each local step ran once, and both orders
        # hold the very same frozen automata.
        assert (sandbox.steps_executed, sandbox.steps_shared) == (2, 2)
        assert p_then_q.automata[0] is q_then_p.automata[0]
        assert p_then_q.automata[1] is q_then_p.automata[1]
        assert p_then_q.started == q_then_p.started == (True, True)
        # The configurations differ only in the order the promotes queued.
        assert p_then_q.buffers[0] == q_then_p.buffers[0][::-1]
        assert p_then_q.buffers[1] == q_then_p.buffers[1][::-1]

    def test_input_demands_are_shared_steps_too(self):
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        for __ in range(2):
            with pytest.raises(InputNeeded) as exc:
                sandbox.execute(state, 0, 0, deliver=False, inputs={})
            assert exc.value.key == (0, 1)
        assert (sandbox.steps_executed, sandbox.steps_shared) == (1, 1)
        # An input the step never looks up does not make it a different step...
        with pytest.raises(InputNeeded):
            sandbox.execute(state, 0, 0, deliver=False, inputs={(1, 1): 0})
        assert (sandbox.steps_executed, sandbox.steps_shared) == (1, 2)
        # ...the one it stopped on does.
        sandbox.execute(state, 0, 0, deliver=False, inputs={(0, 1): 0})
        assert (sandbox.steps_executed, sandbox.steps_shared) == (2, 2)

    def test_unhashable_detector_value_bypasses_the_memo(self):
        sandbox = ReplaySandbox(2, ec_factory)
        state = sandbox.initial_state()
        sample = {"omega": 0}  # a composite detector sample: no dict can key on it
        first = sandbox.execute(state, 0, sample, deliver=False, inputs={(0, 1): 1})
        again = sandbox.execute(state, 0, sample, deliver=False, inputs={(0, 1): 1})
        assert (sandbox.steps_executed, sandbox.steps_shared) == (2, 0)
        assert first == again
        assert first == sandbox.execute(state, 0, 0, deliver=False, inputs={(0, 1): 1})

    def test_memo_holds_no_automaton_context_or_exception(self):
        # The memo may keep keys and plain values for as long as the sandbox
        # lives; a caught InputNeeded would drag its traceback along — the
        # handlers' frames, the thawed automaton, the step's Context.
        def leftovers():
            gc.collect()
            return {
                id(obj)
                for obj in gc.get_objects()
                if isinstance(obj, (Process, Context, InputNeeded))
            }

        dag = SampleDag()
        for __ in range(3):
            for pid in range(2):
                dag.add_sample(pid, 0)
        before = leftovers()
        sandbox = ReplaySandbox(2, ec_factory)
        extract_leader(
            dag, ec_factory, 2,
            bounds=TreeBounds(max_depth=4, max_nodes=300), sandbox=sandbox,
        )
        assert sandbox.steps_shared > 0 and sandbox._memo
        assert leftovers() == before
        # ...and extract_leader itself keeps nothing, sandbox included.
        del sandbox
        result = extract_leader(
            dag, ec_factory, 2, bounds=TreeBounds(max_depth=4, max_nodes=300)
        )
        gc.collect()
        assert not any(isinstance(obj, ReplaySandbox) for obj in gc.get_objects())
        assert result.confidence == "gadget"

    def test_disagreement_detection(self):
        from repro.cht.replay import Decision, ReplayState

        state = ReplayState(
            automata=(),
            started=(),
            buffers=(),
            decisions=(
                Decision(0, 1, 0),
                Decision(1, 1, 1),
                Decision(0, 2, 1),
            ),
        )
        assert state.has_disagreement(1)
        assert not state.has_disagreement(2)
        assert state.decided_values(1) == {0, 1}
