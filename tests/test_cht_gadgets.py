"""Unit tests for decision gadgets on hand-built simulation trees.

The gadget finder is exercised elsewhere on real trees; here we build tiny
synthetic trees with hand-assigned tags to verify the fork/hook patterns and
tie-breaking precisely.
"""

from repro.cht.dag import DagVertex
from repro.cht.gadgets import Gadget, find_forks, find_hooks, smallest_gadget
from repro.cht.replay import ReplayState
from repro.cht.tree import SimulationTree, Step, TreeNode


def make_state(steps=0):
    return ReplayState(
        automata=(), started=(), buffers=((), ()), decisions=(), steps_taken=steps
    )


class FakeTree(SimulationTree):
    """A SimulationTree shell over hand-built nodes (no exploration)."""

    def __init__(self, nodes):
        self.nodes = nodes
        self.truncated = False
        self.bounds = None
        self.dag = None
        self.sandbox = None


def node(node_id, parent, pid, msg_key, fd, inputs, tag, depth):
    step = None
    if parent is not None:
        delivered = None if msg_key is None else (1, msg_key)
        step = Step(DagVertex(pid, depth, fd), delivered, inputs)
    n = TreeNode(
        node_id=node_id,
        parent=parent,
        step=step,
        state=make_state(depth),
        inputs=dict(inputs),
    )
    n.tags = {1: frozenset(tag)}
    return n


class TestForks:
    def make_fork_tree(self):
        # Root (bivalent) with two same-action children of different inputs,
        # one 0-valent and one 1-valent.
        root = node(0, None, 0, None, 0, (), {0, 1}, 0)
        zero = node(1, 0, 2, None, 0, ((( (2, 1)), 0),), {0}, 1)
        one = node(2, 0, 2, None, 0, ((((2, 1)), 1),), {1}, 1)
        root.children = [1, 2]
        return FakeTree([root, zero, one])

    def test_fork_found_with_deciding_process(self):
        tree = self.make_fork_tree()
        forks = find_forks(tree, 0, 1)
        assert len(forks) == 1
        assert forks[0].kind == "fork"
        assert forks[0].deciding_process == 2
        assert forks[0].zero_child == 1
        assert forks[0].one_child == 2

    def test_no_fork_when_actions_differ(self):
        tree = self.make_fork_tree()
        # Different stepping processes: not a fork.
        tree.nodes[2].step = Step(DagVertex(3, 1, 0), None, tree.nodes[2].step.new_inputs)
        assert find_forks(tree, 0, 1) == []

    def test_no_fork_when_pivot_not_bivalent(self):
        tree = self.make_fork_tree()
        tree.nodes[0].tags = {1: frozenset({0})}
        assert find_forks(tree, 0, 1) == []

    def test_no_fork_when_child_bivalent(self):
        tree = self.make_fork_tree()
        tree.nodes[1].tags = {1: frozenset({0, 1})}
        assert find_forks(tree, 0, 1) == []


class TestHooks:
    def make_hook_tree(self):
        # Root S (bivalent); child S' = S.e' (bivalent); S.e is 0-valent and
        # S'.e is 1-valent where e is the same step signature.
        root = node(0, None, 0, None, 0, (), {0, 1}, 0)
        s_e = node(1, 0, 2, ("lambda",), 0, (), {0}, 1)  # S.e
        prime = node(2, 0, 1, None, 0, (), {0, 1}, 1)  # S' = S.e'
        prime_e = node(3, 2, 2, ("lambda",), 0, (), {1}, 2)  # S'.e
        # Make e and e' distinguishable but e identical across both.
        s_e.step = Step(DagVertex(2, 1, 0), None, ())
        prime_e.step = Step(DagVertex(2, 1, 0), None, ())
        root.children = [1, 2]
        prime.children = [3]
        return FakeTree([root, s_e, prime, prime_e])

    def test_hook_found(self):
        tree = self.make_hook_tree()
        hooks = find_hooks(tree, 0, 1)
        assert hooks
        hook = hooks[0]
        assert hook.kind == "hook"
        assert hook.deciding_process == 2
        assert {hook.zero_child, hook.one_child} == {1, 3}

    def test_no_hook_when_same_valency(self):
        tree = self.make_hook_tree()
        tree.nodes[3].tags = {1: frozenset({0})}
        assert find_hooks(tree, 0, 1) == []

    def test_no_hook_when_signatures_differ(self):
        tree = self.make_hook_tree()
        tree.nodes[3].step = Step(DagVertex(2, 1, 9), None, ())  # different fd
        assert find_hooks(tree, 0, 1) == []


class TestSmallest:
    def test_smallest_prefers_lowest_pivot(self):
        fork_tree = TestForks().make_fork_tree()
        gadget = smallest_gadget(fork_tree, 0, 1)
        assert gadget is not None and gadget.pivot == 0

    def test_returns_none_without_gadgets(self):
        root = node(0, None, 0, None, 0, (), {0, 1}, 0)
        tree = FakeTree([root])
        assert smallest_gadget(tree, 0, 1) is None

    def test_gadget_ordering_key(self):
        a = Gadget("fork", 0, 1, 2, 3)
        b = Gadget("hook", 1, 1, 2, 3)
        assert a.sort_key() < b.sort_key()


class TestStepIdentity:
    def test_message_key_is_computed_once_and_is_not_part_of_the_step(self):
        lam = Step(DagVertex(0, 1, 0), None, ())
        msg = Step(DagVertex(0, 1, 0), (1, ("x", 2)), ())
        assert lam.message_key() == ("lambda",)
        assert msg.message_key() == ("msg", 1, "('x', 2)")
        assert msg.message_key() is msg.message_key()
        assert msg == Step(DagVertex(0, 1, 0), (1, ("x", 2)), ())
        assert "message_key" not in repr(msg)
