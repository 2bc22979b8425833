"""The simulation tree of schedules compatible with DAG paths (Section 4).

A tree vertex is a finite schedule of the simulated algorithm "triggered" by
a path through the sample DAG: step ``i`` is taken by the owner of the
``i``-th path vertex using its sampled detector value. Each extension
branches over

- the next DAG vertex (any successor of the current path end — transitivity
  of the DAG makes this exactly the paper's path compatibility),
- whether the stepping process consumes its oldest pending message or takes
  a lambda step, and
- the binary proposal inputs, chosen lazily at the step that first needs
  them (the paper encodes inputs in histories rather than initial
  configurations — footnote 2).

Exploration is bounded (depth, node count, branching) and deterministic;
``k``-tags are computed bottom-up after construction per the paper's
definition: the ``k``-tag of a vertex collects every value returned by
``proposeEC_k`` in its subtree's schedules, plus ``BOT`` when some schedule
contains two different returns for instance ``k``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.cht.dag import DagVertex, SampleDag
from repro.cht.replay import InputNeeded, ReplaySandbox, ReplayState
from repro.sim.types import ProcessId

#: Marker for the paper's "invalid" tag component.
BOT = "BOT"


@dataclass(frozen=True)
class TreeBounds:
    """Exploration caps for the (in the limit, infinite) simulation tree."""

    max_depth: int = 8
    max_nodes: int = 4000
    #: cap on DAG successors considered per extension (smallest first).
    max_successors: int = 3
    #: binary input domain for proposals.
    input_values: tuple[Any, ...] = (0, 1)


@dataclass(frozen=True)
class Step:
    """The labelled edge leading into a tree node."""

    vertex: DagVertex
    delivered: tuple[ProcessId, Any] | None  # (sender, payload) or lambda
    #: inputs fixed *by this step* (usually empty or one entry).
    new_inputs: tuple[tuple[tuple[ProcessId, Any], Any], ...]
    #: see :meth:`message_key`; computed once, the gadget search asks per pair.
    _message_key: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.delivered is None:
            key: tuple = ("lambda",)
        else:
            sender, payload = self.delivered
            key = ("msg", sender, repr(payload))
        object.__setattr__(self, "_message_key", key)

    @property
    def pid(self) -> ProcessId:
        return self.vertex.pid

    def message_key(self) -> tuple:
        """Identity of the consumed message (for gadget matching)."""
        return self._message_key


@dataclass
class TreeNode:
    """One vertex of the simulation tree."""

    node_id: int
    parent: int | None
    step: Step | None  # None at the root
    state: ReplayState
    inputs: dict[tuple[ProcessId, Any], Any]
    children: list[int] = field(default_factory=list)
    #: k -> tag set (subset of {0, 1, BOT}); filled by tag computation.
    tags: dict[Any, frozenset] = field(default_factory=dict)
    #: max sample index along the DAG path (the paper's m-based order).
    max_sample_k: int = 0

    @property
    def depth(self) -> int:
        return self.state.steps_taken


class SimulationTree:
    """Bounded, deterministic exploration of the simulation tree."""

    def __init__(
        self,
        dag: SampleDag,
        sandbox: ReplaySandbox,
        bounds: TreeBounds | None = None,
    ) -> None:
        self.dag = dag
        self.sandbox = sandbox
        self.bounds = bounds or TreeBounds()
        self.nodes: list[TreeNode] = []
        self.truncated = False
        #: path end (None = the root) -> its first ``max_successors`` DAG
        #: extensions. The DAG is not mutated during a build, and sorting the
        #: successors (``repr`` of every value) once per vertex instead of
        #: once per expansion is most of the tree's own cost.
        self._extensions: dict[DagVertex | None, list[DagVertex]] = {}
        self._build()

    # -- construction -------------------------------------------------------------

    def _build(self) -> None:
        root = TreeNode(
            node_id=0,
            parent=None,
            step=None,
            state=self.sandbox.initial_state(),
            inputs={},
        )
        self.nodes.append(root)
        frontier = deque([0])
        while frontier:
            node_id = frontier.popleft()
            node = self.nodes[node_id]
            if node.depth >= self.bounds.max_depth:
                continue
            if len(self.nodes) >= self.bounds.max_nodes:
                self.truncated = True
                break
            frontier.extend(self._expand(node))
        self._extensions.clear()

    def _next_vertices(self, node: TreeNode) -> list[DagVertex]:
        end = None if node.step is None else node.step.vertex
        extensions = self._extensions.get(end)
        if extensions is None:
            candidates = self.dag.roots() if end is None else self.dag.successors(end)
            extensions = candidates[: self.bounds.max_successors]
            self._extensions[end] = extensions
        return extensions

    def _expand(self, node: TreeNode) -> list[int]:
        created: list[int] = []
        for vertex in self._next_vertices(node):
            pid = vertex.pid
            deliver_options = [False]
            if node.state.pending_for(pid) > 0:
                deliver_options = [True, False]
            for deliver in deliver_options:
                created.extend(self._try_step(node, vertex, deliver))
                if len(self.nodes) >= self.bounds.max_nodes:
                    self.truncated = True
                    return created
        return created

    def _try_step(
        self, node: TreeNode, vertex: DagVertex, deliver: bool
    ) -> list[int]:
        """Execute one step, branching over inputs demanded along the way."""
        pending: deque[dict[tuple[ProcessId, Any], Any]] = deque([dict(node.inputs)])
        created: list[int] = []
        guard = 0
        while pending:
            guard += 1
            if guard > 64:  # a single step cannot need this many inputs
                self.truncated = True  # ...and if it does, branches are dropped
                break
            inputs = pending.popleft()
            try:
                state = self.sandbox.execute(
                    node.state, vertex.pid, vertex.value, deliver, inputs
                )
            except InputNeeded as need:
                for value in self.bounds.input_values:
                    chosen = dict(inputs)
                    chosen[need.key] = value
                    pending.append(chosen)
                continue
            new_inputs = tuple(
                sorted(
                    (key, value)
                    for key, value in inputs.items()
                    if key not in node.inputs
                )
            )
            delivered = node.state.oldest_message(vertex.pid) if deliver else None
            child = TreeNode(
                node_id=len(self.nodes),
                parent=node.node_id,
                step=Step(vertex, delivered, new_inputs),
                state=state,
                inputs=inputs,
                max_sample_k=max(node.max_sample_k, vertex.k),
            )
            self.nodes.append(child)
            node.children.append(child.node_id)
            created.append(child.node_id)
            if len(self.nodes) >= self.bounds.max_nodes:
                self.truncated = True
                break
        return created

    # -- tags (paper, Section 4) -----------------------------------------------------

    def instances_observed(self) -> list[Any]:
        """Instance ids with at least one decision anywhere in the tree."""
        seen: set = set()
        for node in self.nodes:
            for decision in node.state.decisions:
                seen.add(decision.instance)
        return sorted(seen, key=repr)

    def compute_tags(self, instances: list[Any] | None = None) -> None:
        """Fill ``node.tags[k]`` for every node and requested instance."""
        if instances is None:
            instances = self.instances_observed()
        for node in reversed(self.nodes):  # children have larger ids
            tags: dict[Any, set] = {k: set() for k in instances}
            for k in instances:
                for value in node.state.decided_values(k):
                    tags[k].add(value)
                if node.state.has_disagreement(k):
                    tags[k].add(BOT)
            for child_id in node.children:
                child = self.nodes[child_id]
                for k in instances:
                    tags[k] |= set(child.tags.get(k, frozenset()))
            node.tags = {k: frozenset(v) for k, v in tags.items()}

    # -- queries ----------------------------------------------------------------------

    def is_k_enabled(self, node: TreeNode, k: Any) -> bool:
        """k = 1, or the node's schedule contains a response to k - 1."""
        if k == 1:
            return True
        previous = k - 1 if isinstance(k, int) else None
        if previous is None:
            return True
        return any(d.instance == previous for d in node.state.decisions)

    def valency(self, node: TreeNode, k: Any) -> frozenset:
        return node.tags.get(k, frozenset())

    def is_bivalent(self, node: TreeNode, k: Any) -> bool:
        tag = self.valency(node, k)
        return 0 in tag and 1 in tag

    def is_univalent(self, node: TreeNode, k: Any, value: Any) -> bool:
        return self.valency(node, k) == frozenset({value})

    def first_bivalent(self, k: Any) -> TreeNode | None:
        """The first k-bivalent, k-enabled vertex in the paper's m-order."""
        candidates = [
            node
            for node in self.nodes
            if self.is_k_enabled(node, k) and self.is_bivalent(node, k)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda n: (n.max_sample_k, n.node_id))

    def subtree_ids(self, root_id: int) -> list[int]:
        """All node ids in the subtree of ``root_id`` (preorder)."""
        out: list[int] = []
        stack = [root_id]
        while stack:
            node_id = stack.pop()
            out.append(node_id)
            stack.extend(reversed(self.nodes[node_id].children))
        return out
