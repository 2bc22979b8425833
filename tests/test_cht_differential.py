"""Differential test of the CHT replay sandbox against a deepcopy oracle.

The production sandbox freezes automata to pickle bytes and thaws fresh
instances; the oracle below keeps whole automaton objects and deep-copies
them in both directions — the snapshot discipline the sandbox used before,
kept here (and only here) as the thing the frozen-bytes path must agree
with. Every fresh extraction of the three EXP-7 scenarios, and
Hypothesis-drawn small DAGs, go through both: the ``ExtractionResult``s and
every tree node must be equal.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

import repro.cht.extraction as extraction
import repro.cht.reduction as reduction
from repro.analysis.experiments.cht import SCENARIOS, run_cht_scenario
from repro.cht import ReplaySandbox, SampleDag, SimulationTree, TreeBounds
from repro.core import EcDriverLayer, EcUsingOmegaLayer
from repro.sim import ProtocolStack


def ec_factory(proposal_fn):
    return ProtocolStack(
        [EcUsingOmegaLayer(), EcDriverLayer(proposal_fn, max_instances=2)]
    )


class DeepcopyOracleSandbox(ReplaySandbox):
    """A "frozen" automaton is a private deep copy; the sandbox's input
    table is seeded into the memo so copies keep pointing at it."""

    def freeze(self, process):
        return copy.deepcopy(process, {id(self._inputs): self._inputs})

    thaw = freeze


def _extract(sandbox_cls, dag, stack_factory, n, bounds):
    """``extract_leader`` on ``sandbox_cls``; returns (result, its tree)."""
    trees = []

    class RecordedTree(SimulationTree):
        def __init__(self, *args):
            super().__init__(*args)
            trees.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extraction, "ReplaySandbox", sandbox_cls)
        patch.setattr(extraction, "SimulationTree", RecordedTree)
        result = extraction.extract_leader(dag, stack_factory, n, bounds=bounds)
    (tree,) = trees
    return result, tree


def _node_view(node):
    state = node.state
    return (
        node.node_id, node.parent, node.step, tuple(node.children),
        node.inputs, node.tags, node.max_sample_k,
        state.started, state.buffers, state.decisions, state.steps_taken,
    )


def differential_extract(dag, stack_factory, n, *, bounds=None):
    """Drop-in ``extract_leader`` that also runs the oracle and compares."""
    result, tree = _extract(ReplaySandbox, dag, stack_factory, n, bounds)
    expected, oracle_tree = _extract(DeepcopyOracleSandbox, dag, stack_factory, n, bounds)
    # Field by field: leader, confidence, instance, gadget, tree_nodes,
    # dag_vertices, bivalent_node, truncated.
    assert result == expected
    for node, oracle_node in zip(tree.nodes, oracle_tree.nodes, strict=True):
        assert _node_view(node) == _node_view(oracle_node)
    return result


#: the EXP-7 ``extractions`` column at seed 1 (EXPERIMENTS.md).
SEED_1_EXTRACTIONS = (20, 28, 41)


@pytest.mark.parametrize("index", range(len(SCENARIOS)))
def test_exp7_rounds_match_the_deepcopy_oracle(monkeypatch, index):
    fresh = []

    def recording(*args, **kwargs):
        fresh.append(differential_extract(*args, **kwargs))
        return fresh[-1]

    monkeypatch.setattr(reduction, "extract_leader", recording)
    __, *scenario = SCENARIOS[index]
    pattern, procs = run_cht_scenario(*scenario, seed=1)
    run = sum(procs[pid].extractions_run for pid in pattern.correct)
    assert run == SEED_1_EXTRACTIONS[index]
    # Every round is either a compared fresh extraction or a reuse of one.
    assert fresh
    assert sum(p.extractions_run - p.extractions_reused for p in procs) == len(fresh)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
        min_size=1,
        max_size=8,
    ),
)
def test_small_dags_match_the_deepcopy_oracle(n, samples):
    dag = SampleDag()
    for pid, trusted in samples:
        dag.add_sample(pid % n, trusted % n)
    differential_extract(
        dag, ec_factory, n, bounds=TreeBounds(max_depth=4, max_nodes=300)
    )
