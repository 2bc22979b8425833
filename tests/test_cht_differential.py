"""Differential test of the CHT replay sandbox against a deepcopy oracle.

The production sandbox freezes automata to pickle bytes, runs each distinct
local step once and composes successor states from the shared effect; the
oracle below does none of that. It keeps whole automaton objects, deep-copies
one and runs its handlers for *every* tree edge, and rebuilds every buffer
of the successor — the execute-every-edge discipline the sandbox had before,
kept here (and only here) as the thing the memoised path must agree with.
It shares no stepping code with :class:`ReplaySandbox`, so the memo cannot
vouch for itself. Every fresh extraction of the three EXP-7 scenarios, and
Hypothesis-drawn small DAGs over the EC stack and over automata built to
break an under-keyed memo, go through both: the ``ExtractionResult``s and
every tree node must be equal.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

import repro.cht.extraction as extraction
import repro.cht.reduction as reduction
from repro.analysis.experiments.cht import SCENARIOS, run_cht_scenario
from repro.cht import DagVertex, ReplaySandbox, SampleDag, SimulationTree, TreeBounds
from repro.cht.dag import SampleDagSnapshot
from repro.cht.replay import Decision, ReplayState, SharedInputTable
from repro.core import EcDriverLayer, EcUsingOmegaLayer
from repro.sim import Process, ProtocolStack
from repro.sim.context import Context, expand_sends


def ec_factory(proposal_fn):
    return ProtocolStack(
        [EcUsingOmegaLayer(), EcDriverLayer(proposal_fn, max_instances=2)]
    )


class DeepcopyOracleSandbox:
    """Executes every edge on a private deep copy of the whole automaton.

    ``ReplayState.automata`` holds automaton objects, not bytes; the input
    table is seeded into the deepcopy memo so copies keep pointing at it.
    """

    def __init__(self, n, stack_factory):
        self.n = n
        self._inputs = SharedInputTable()
        self._initial = []
        for pid in range(n):
            process = stack_factory(self._inputs.lookup)
            process.attach(pid, n)
            self._initial.append(process)

    def initial_state(self):
        return ReplayState(
            automata=tuple(self._initial),
            started=(False,) * self.n,
            buffers=((),) * self.n,
            decisions=(),
        )

    def execute(self, state, pid, fd_value, deliver, inputs):
        process = copy.deepcopy(state.automata[pid], {id(self._inputs): self._inputs})
        self._inputs.table = inputs
        ctx = Context(pid=pid, n=self.n, time=state.steps_taken, fd_value=fd_value)
        consumed = None
        if deliver:
            consumed = state.oldest_message(pid)
            if consumed is None:
                raise ValueError(f"no message pending for p{pid}")

        if not state.started[pid]:
            process.on_start(ctx)
        if consumed is not None:
            process.on_message(ctx, consumed[0], consumed[1])
        process.on_timeout(ctx)

        buffers = [list(fifo) for fifo in state.buffers]
        if consumed is not None:
            del buffers[pid][0]
        for receiver, payload in expand_sends(ctx.drain_outbox(), pid, self.n):
            buffers[receiver].append((pid, payload))
        decisions = list(state.decisions)
        for output in ctx.drain_outputs():
            if isinstance(output, tuple) and output and output[0] == "decide":
                decisions.append(Decision(pid, output[1], output[2]))
        started = list(state.started)
        started[pid] = True
        automata = list(state.automata)
        automata[pid] = process
        return ReplayState(
            automata=tuple(automata),
            started=tuple(started),
            buffers=tuple(tuple(fifo) for fifo in buffers),
            decisions=tuple(decisions),
            steps_taken=state.steps_taken + 1,
        )


def _extract(sandbox, dag, stack_factory, n, bounds):
    """``extract_leader`` on ``sandbox``; returns (result, its tree)."""
    trees = []

    class RecordedTree(SimulationTree):
        def __init__(self, *args):
            super().__init__(*args)
            trees.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extraction, "SimulationTree", RecordedTree)
        result = extraction.extract_leader(
            dag, stack_factory, n, bounds=bounds, sandbox=sandbox
        )
    (tree,) = trees
    return result, tree


def _node_view(node):
    state = node.state
    return (
        node.node_id, node.parent, node.step, tuple(node.children),
        node.inputs, node.tags, node.max_sample_k,
        state.started, state.buffers, state.decisions, state.steps_taken,
    )


def differential_extract(dag, stack_factory, n, *, bounds=None, sandbox=None, trees=None):
    """Drop-in ``extract_leader`` that also runs the oracle and compares.

    ``sandbox`` defaults to a fresh memoised one; ``trees`` (a list) receives
    the memoised run's tree.
    """
    sandbox = sandbox or ReplaySandbox(n, stack_factory)
    result, tree = _extract(sandbox, dag, stack_factory, n, bounds)
    expected, oracle_tree = _extract(
        DeepcopyOracleSandbox(n, stack_factory), dag, stack_factory, n, bounds
    )
    # Field by field: leader, confidence, instance, gadget, tree_nodes,
    # dag_vertices, bivalent_node, truncated.
    assert result == expected
    for node, oracle_node in zip(tree.nodes, oracle_tree.nodes, strict=True):
        assert _node_view(node) == _node_view(oracle_node)
    if trees is not None:
        trees.append(tree)
    return result


#: the EXP-7 ``extractions`` column (EXPERIMENTS.md).
EXTRACTIONS = (20, 28, 41)
#: ``(steps_executed, steps_shared)`` summed over each EXP-7 scenario's
#: processes: how often the replay memo ran a step and answered
#: one. Any change to what a frozen automaton's bytes hold (the memo's key)
#: moves them.
STEPS = ((351, 3694), (2328, 11474), (648, 5982))


@pytest.mark.parametrize("index", range(len(SCENARIOS)))
def test_exp7_rounds_match_the_deepcopy_oracle(monkeypatch, index):
    fresh, trees = [], []

    def recording(*args, **kwargs):
        fresh.append(differential_extract(*args, trees=trees, **kwargs))
        return fresh[-1]

    monkeypatch.setattr(reduction, "extract_leader", recording)
    __, *scenario = SCENARIOS[index]
    pattern, procs = run_cht_scenario(*scenario)
    run = sum(procs[pid].extractions_run for pid in pattern.correct)
    assert run == EXTRACTIONS[index]
    # Every round is either a compared fresh extraction or a reuse of one.
    assert fresh
    assert sum(p.extractions_run - p.extractions_reused for p in procs) == len(fresh)
    # The memo was engaged in what was compared: most edges repeat a step.
    executed = sum(p.steps_executed for p in procs)
    shared = sum(p.steps_shared for p in procs)
    assert 0 < executed < shared
    assert (executed, shared) == STEPS[index]
    # No step fixes six inputs, i.e. needs more than the 64 attempts
    # ``_try_step`` allows (a full binary branching over five is 63): the
    # guard that now reports ``truncated`` is never reached, no row moved.
    assert max(len(n.step.new_inputs) for t in trees for n in t.nodes[1:]) < 6


# -- automata built to break a memo that keys on too little -------------------


class Oddball(Process):
    """A one-instance EC look-alike with one configurable bad habit.

    Every process broadcasts its proposal once and decides the first value
    it receives from the process its detector trusts. The ``quirk`` makes
    the step depend on something a careless memo key would leave out.
    """

    def __init__(self, proposal_fn, quirk):
        self.proposal_fn = proposal_fn
        self.quirk = quirk
        self.sent = False
        self.decided = False

    def _propose(self, ctx):
        value = self.proposal_fn(ctx.pid, 1)
        if self.quirk == "peer-input":  # another process's proposal
            value ^= self.proposal_fn((ctx.pid + 1) % ctx.n, 1)
        # "unhashable": a payload no dict can key on.
        ctx.send_all(("val", [value] if self.quirk == "unhashable" else value))

    def on_start(self, ctx):
        if self.quirk == "started":
            # Proposes from on_start and leaves no trace in its state: the
            # frozen bytes before and after the first step are equal, only
            # ``started`` tells the two steps apart.
            self._propose(ctx)

    def on_message(self, ctx, sender, payload):
        if self.decided or sender != ctx.omega():
            return
        self.decided = True
        value = payload[1][0] if self.quirk == "unhashable" else payload[1]
        if self.quirk == "time":  # the same step decides differently by depth
            value = (value + ctx.time) % 2
        ctx.output(("decide", 1, value))

    def on_timeout(self, ctx):
        if self.quirk != "started" and not self.sent:
            self.sent = True
            self._propose(ctx)


QUIRKS = ("none", "time", "peer-input", "unhashable", "started")


def oddball_factory(quirk):
    return lambda proposal_fn: Oddball(proposal_fn, quirk)


FACTORIES = {"ec": ec_factory, **{quirk: oddball_factory(quirk) for quirk in QUIRKS}}


@pytest.mark.parametrize("name", FACTORIES)
@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
        min_size=1,
        max_size=8,
    ),
)
def test_small_dags_match_the_deepcopy_oracle(name, n, samples):
    dag = SampleDag()
    for pid, trusted in samples:
        dag.add_sample(pid % n, trusted % n)
    differential_extract(
        dag, FACTORIES[name], n, bounds=TreeBounds(max_depth=4, max_nodes=300)
    )


@pytest.mark.parametrize("name", FACTORIES)
@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
        min_size=1,
        max_size=8,
    ),
    st.lists(st.integers(min_value=1, max_value=4), min_size=8, max_size=8),
)
def test_extraction_sees_query_indices_only_by_order(name, n, samples, gaps):
    """``OmegaExtractionProcess`` reuses results across DAGs of one shape:
    mapping every ``k`` by a strictly increasing function changes nothing."""
    dag = SampleDag()
    for pid, trusted in samples:
        dag.add_sample(pid % n, trusted % n)

    def relabel(v):
        return DagVertex(v.pid, sum(gaps[: v.k]), v.value)

    relabelled = SampleDag()
    relabelled.union(
        SampleDagSnapshot(
            {
                relabel(v): frozenset(map(relabel, into))
                for v, into in dag.snapshot().preds.items()
            }
        )
    )
    assert relabelled.shape() == dag.shape()
    bounds = TreeBounds(max_depth=4, max_nodes=300)
    assert extraction.extract_leader(
        relabelled, FACTORIES[name], n, bounds=bounds
    ) == extraction.extract_leader(dag, FACTORIES[name], n, bounds=bounds)


def _round_robin_dag(n, rounds=3):
    dag = SampleDag()
    for __ in range(rounds):
        for pid in range(n):
            dag.add_sample(pid, 0)
    return dag


@pytest.mark.parametrize("quirk", QUIRKS)
def test_quirks_decide_and_engage_the_memo_they_can(quirk):
    """The adversarial trees are not vacuous: they decide, disagree across
    input branches, and share steps wherever their stimuli hash."""
    sandbox = ReplaySandbox(2, oddball_factory(quirk))
    trees = []
    result = differential_extract(
        _round_robin_dag(2), oddball_factory(quirk), 2,
        bounds=TreeBounds(max_depth=5, max_nodes=600), sandbox=sandbox, trees=trees,
    )
    (tree,) = trees
    assert tree.is_bivalent(tree.nodes[0], 1)
    assert result.confidence in ("gadget", "split")
    assert sandbox.steps_executed + sandbox.steps_shared > len(tree.nodes) - 1
    assert sandbox.steps_shared > 0
    if quirk == "unhashable":
        # Steps that consume a list payload ran every time they were asked.
        consuming = sum(1 for node in tree.nodes[1:] if node.step.delivered)
        assert sandbox.steps_executed >= consuming
