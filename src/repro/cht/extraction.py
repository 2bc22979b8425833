"""End-to-end leader extraction: DAG -> emulated Omega output.

``extract_leader`` is a *pure function* of the sample DAG, the simulated
algorithm and the exploration bounds: all correct processes that reach the
same DAG compute the same leader — which is what lets the distributed
reduction (:mod:`repro.cht.reduction`) converge once the gossiped DAGs do.

The procedure (mirroring Figure 6 adapted to EC as in Section 4):

1. build the bounded simulation tree induced by the DAG;
2. compute k-tags;
3. for each instance ``k`` (in order): locate the first k-enabled,
   k-bivalent vertex in the m-based order;
4. search its subtree for the smallest decision gadget; the gadget's
   deciding process is the extracted leader;
5. fallbacks, in order, when the bounded exploration finds no gadget (the
   infinite construction always finds one): the stepping process of the
   first valency-splitting branch below the bivalent vertex, else the owner
   of the most recent DAG sample. Extraction results carry a ``confidence``
   label so callers can distinguish these cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cht.dag import SampleDag
from repro.cht.gadgets import Gadget, smallest_gadget
from repro.cht.replay import ReplaySandbox, StackFactory
from repro.cht.tree import SimulationTree, TreeBounds
from repro.sim.types import ProcessId


@dataclass(frozen=True)
class ExtractionResult:
    """Outcome of one extraction pass."""

    leader: ProcessId
    confidence: str  # "gadget", "split", or "fallback"
    instance: Any | None
    gadget: Gadget | None
    tree_nodes: int
    dag_vertices: int
    bivalent_node: int | None
    truncated: bool
    #: the caps that cut the tree (see :attr:`SimulationTree.cut_by`).
    cut_by: frozenset[str]


def _split_leader(
    tree: SimulationTree, root_id: int, k: Any
) -> tuple[ProcessId, int] | None:
    """The stepping process of the first 0/1-valency split among siblings."""
    for node_id in tree.subtree_ids(root_id):
        node = tree.nodes[node_id]
        child_valencies = {}
        for child_id in node.children:
            child = tree.nodes[child_id]
            tag = tree.valency(child, k)
            if tag == frozenset({0}):
                child_valencies.setdefault(0, child)
            elif tag == frozenset({1}):
                child_valencies.setdefault(1, child)
        if 0 in child_valencies and 1 in child_valencies:
            return child_valencies[0].step.pid, node_id
    return None


def extract_leader(
    dag: SampleDag,
    stack_factory: StackFactory,
    n: int,
    *,
    bounds: TreeBounds | None = None,
    max_instances: int = 2,
    sandbox: ReplaySandbox | None = None,
) -> ExtractionResult:
    """Run the CHT extraction on one DAG; see the module docstring.

    The replay sandbox — and with it the memo of local steps — lives for
    this call. A caller that wants its step counters passes a fresh
    ``sandbox`` built from the same ``n`` and ``stack_factory``, reads them
    afterwards and drops it.
    """
    bounds = bounds or TreeBounds()
    if sandbox is None:
        sandbox = ReplaySandbox(n, stack_factory)
    tree = SimulationTree(dag, sandbox, bounds)
    tree.compute_tags()

    explored = dict(
        tree_nodes=len(tree.nodes),
        dag_vertices=len(dag),
        truncated=tree.truncated,
        cut_by=frozenset(tree.cut_by),
    )
    fallback_leader = _fallback_leader(dag)
    instances = [k for k in tree.instances_observed() if isinstance(k, int)]
    instances = [k for k in instances if k <= max_instances]

    for k in sorted(instances):
        bivalent = tree.first_bivalent(k)
        if bivalent is None:
            continue
        gadget = smallest_gadget(tree, bivalent.node_id, k)
        if gadget is not None:
            return ExtractionResult(
                leader=gadget.deciding_process,
                confidence="gadget",
                instance=k,
                gadget=gadget,
                bivalent_node=bivalent.node_id,
                **explored,
            )
        split = _split_leader(tree, bivalent.node_id, k)
        if split is not None:
            leader, node_id = split
            return ExtractionResult(
                leader=leader,
                confidence="split",
                instance=k,
                gadget=None,
                bivalent_node=node_id,
                **explored,
            )
    return ExtractionResult(
        leader=fallback_leader,
        confidence="fallback",
        instance=None,
        gadget=None,
        bivalent_node=None,
        **explored,
    )


def _fallback_leader(dag: SampleDag) -> ProcessId:
    """The owner of the highest-index sample (a recently alive process)."""
    vertices = dag.vertices()
    if not vertices:
        return 0
    best = max(vertices, key=lambda v: (v.k, -v.pid))
    return best.pid
