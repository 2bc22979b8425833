"""Tests for the CHT simulation tree, tags, gadgets and leader extraction.

These exercise Lemma 1's construction end to end on bounded instances: the
extracted leader must be the correct process whose hidden choices decide the
simulated EC runs — for Algorithm 4, the Omega leader.
"""

import dataclasses

import pytest

from repro.cht import (
    OmegaExtractionProcess,
    ReplaySandbox,
    SampleDag,
    SimulationTree,
    TreeBounds,
    extract_leader,
)
from repro.cht.gadgets import find_forks, smallest_gadget
from repro.core import EcDriverLayer, EcUsingOmegaLayer
from repro.detectors import OmegaDetector
from repro.sim import FailurePattern, FixedDelay, Process, ProtocolStack, Simulation


def ec_factory(proposal_fn):
    return ProtocolStack(
        [EcUsingOmegaLayer(), EcDriverLayer(proposal_fn, max_instances=2)]
    )


def stable_dag(n=2, leader=0, rounds=4):
    dag = SampleDag()
    for __ in range(rounds):
        for pid in range(n):
            dag.add_sample(pid, leader)
    return dag


SMALL_BOUNDS = TreeBounds(max_depth=5, max_nodes=1200)


class Greedy(Process):
    """Looks up ``demands`` proposal inputs in a single step."""

    def __init__(self, proposal_fn, demands):
        self.proposal_fn = proposal_fn
        self.demands = demands

    def on_timeout(self, ctx):
        for instance in range(1, self.demands + 1):
            self.proposal_fn(ctx.pid, instance)


class TestSimulationTree:
    def test_tree_grows_and_respects_depth(self):
        tree = SimulationTree(stable_dag(), ReplaySandbox(2, ec_factory), SMALL_BOUNDS)
        assert len(tree.nodes) > 1
        assert all(node.depth <= SMALL_BOUNDS.max_depth for node in tree.nodes)

    def test_children_follow_dag_edges(self):
        dag = stable_dag()
        tree = SimulationTree(dag, ReplaySandbox(2, ec_factory), SMALL_BOUNDS)
        for node in tree.nodes:
            for child_id in node.children:
                child = tree.nodes[child_id]
                if node.step is not None:
                    assert dag.has_edge(node.step.vertex, child.step.vertex)

    def test_root_is_bivalent_for_instance_one(self):
        tree = SimulationTree(stable_dag(), ReplaySandbox(2, ec_factory), SMALL_BOUNDS)
        tree.compute_tags()
        root = tree.nodes[0]
        assert tree.is_bivalent(root, 1), tree.valency(root, 1)

    def test_input_branch_children_are_univalent(self):
        # With a stable leader, fixing the leader's proposal fixes every
        # decision: the two input-branches of p0's first step are univalent.
        tree = SimulationTree(stable_dag(), ReplaySandbox(2, ec_factory), SMALL_BOUNDS)
        tree.compute_tags()
        root = tree.nodes[0]
        leaders_first_steps = [
            tree.nodes[c]
            for c in root.children
            if tree.nodes[c].step.pid == 0 and tree.nodes[c].step.new_inputs
        ]
        valencies = {tree.valency(node, 1) for node in leaders_first_steps}
        assert frozenset({0}) in valencies
        assert frozenset({1}) in valencies

    def test_tags_monotone_in_subtree(self):
        # A node's tag contains every child's tag (tags only accumulate).
        tree = SimulationTree(stable_dag(), ReplaySandbox(2, ec_factory), SMALL_BOUNDS)
        tree.compute_tags()
        for node in tree.nodes:
            for child_id in node.children:
                child = tree.nodes[child_id]
                for k, child_tag in child.tags.items():
                    assert child_tag <= node.tags.get(k, frozenset())

    def test_dropped_input_branches_are_reported_as_truncation(self):
        # Seven binary inputs in one step are 255 attempts; _try_step gives
        # up after 64 and must say so, not hand back a silently partial tree.
        tree = SimulationTree(
            stable_dag(n=1, rounds=1),
            ReplaySandbox(1, lambda proposal_fn: Greedy(proposal_fn, demands=7)),
            TreeBounds(max_depth=1),
        )
        assert len(tree.nodes) - 1 < 2**7
        assert tree.truncated
        assert tree.cut_by == {"input_guard"}
        # Five inputs (63 attempts) fit under the guard: all 32 branches.
        tree = SimulationTree(
            stable_dag(n=1, rounds=1),
            ReplaySandbox(1, lambda proposal_fn: Greedy(proposal_fn, demands=5)),
            TreeBounds(max_depth=1),
        )
        assert len(tree.nodes) - 1 == 2**5
        assert not tree.truncated
        assert tree.cut_by == set()

    def test_each_cap_names_itself(self):
        sandbox = ReplaySandbox(2, ec_factory)
        # A depth cap below the DAG's longest path cuts without dropping
        # branches inside the horizon.
        shallow = SimulationTree(stable_dag(), sandbox, TreeBounds(max_depth=2))
        assert shallow.cut_by == {"max_depth"} and not shallow.truncated
        # A horizon past every DAG path is not cut by depth.
        whole = SimulationTree(stable_dag(rounds=1), sandbox, TreeBounds(max_depth=8))
        assert max(node.depth for node in whole.nodes) < 8
        assert whole.cut_by == set() and not whole.truncated
        crowded = SimulationTree(stable_dag(), sandbox, TreeBounds(max_nodes=30))
        assert crowded.cut_by == {"max_nodes"} and crowded.truncated

    def test_no_disagreement_with_stable_leader(self):
        tree = SimulationTree(stable_dag(), ReplaySandbox(2, ec_factory), SMALL_BOUNDS)
        tree.compute_tags()
        from repro.cht.tree import BOT

        for node in tree.nodes:
            for tag in node.tags.values():
                assert BOT not in tag


class TestGadgets:
    def test_fork_exists_and_decides_leader(self):
        tree = SimulationTree(stable_dag(), ReplaySandbox(2, ec_factory), SMALL_BOUNDS)
        tree.compute_tags()
        forks = find_forks(tree, 0, 1)
        assert forks, "expected at least one fork under the bivalent root"
        assert forks[0].deciding_process == 0

    def test_smallest_gadget_deterministic(self):
        tree1 = SimulationTree(stable_dag(), ReplaySandbox(2, ec_factory), SMALL_BOUNDS)
        tree1.compute_tags()
        tree2 = SimulationTree(stable_dag(), ReplaySandbox(2, ec_factory), SMALL_BOUNDS)
        tree2.compute_tags()
        g1 = smallest_gadget(tree1, 0, 1)
        g2 = smallest_gadget(tree2, 0, 1)
        assert g1 == g2


class TestExtraction:
    def test_extracts_stable_leader_p0(self):
        result = extract_leader(stable_dag(leader=0), ec_factory, 2, bounds=SMALL_BOUNDS)
        assert result.leader == 0
        assert result.confidence == "gadget"

    def test_extracts_stable_leader_p1(self):
        result = extract_leader(stable_dag(leader=1), ec_factory, 2, bounds=SMALL_BOUNDS)
        assert result.leader == 1
        assert result.confidence == "gadget"

    def test_three_processes(self):
        result = extract_leader(
            stable_dag(n=3, leader=2, rounds=3),
            ec_factory,
            3,
            bounds=TreeBounds(max_depth=5, max_nodes=1500, max_successors=4),
        )
        assert result.leader == 2

    def test_extraction_is_pure(self):
        r1 = extract_leader(stable_dag(), ec_factory, 2, bounds=SMALL_BOUNDS)
        r2 = extract_leader(stable_dag(), ec_factory, 2, bounds=SMALL_BOUNDS)
        assert (r1.leader, r1.confidence, r1.tree_nodes) == (
            r2.leader,
            r2.confidence,
            r2.tree_nodes,
        )

    def test_empty_ish_dag_falls_back(self):
        dag = SampleDag()
        dag.add_sample(1, 1)
        result = extract_leader(dag, ec_factory, 2, bounds=TreeBounds(max_depth=1))
        assert result.confidence == "fallback"
        assert result.leader == 1


class TestDistributedReduction:
    """The full T(D -> Omega): gossip + extraction inside a simulation."""

    def test_emulated_omega_stabilizes_on_correct_leader(self):
        n = 2
        pattern = FailurePattern.crash(n, {0: 60})
        detector = OmegaDetector(stabilization_time=0, leader=1).history(pattern)
        procs = [
            OmegaExtractionProcess(
                ec_factory,
                bounds=TreeBounds(max_depth=5, max_nodes=800),
                analyze_every=4,
                max_samples=8,
            )
            for _ in range(n)
        ]
        sim = Simulation(
            procs,
            failure_pattern=pattern,
            detector=detector,
            delay_model=FixedDelay(2),
            timeout_interval=4,
            message_batch=4,
        )
        sim.run_until(300)
        outputs = sim.run.tagged_outputs(1, "omega")
        assert outputs, "no emulated Omega output"
        assert outputs[-1][1] == (1,)
        assert procs[1].current_leader == 1

    def test_churn_then_stabilization_with_window(self):
        n = 3
        pattern = FailurePattern.crash(n, {0: 100})
        detector = OmegaDetector(
            stabilization_time=120, leader=1, pre_behavior="rotate"
        ).history(pattern)
        procs = [
            OmegaExtractionProcess(
                ec_factory,
                bounds=TreeBounds(max_depth=5, max_nodes=800),
                analyze_every=5,
                window=4,
            )
            for _ in range(n)
        ]
        sim = Simulation(
            procs,
            failure_pattern=pattern,
            detector=detector,
            delay_model=FixedDelay(2),
            timeout_interval=4,
            message_batch=4,
        )
        sim.run_until(420)
        for pid in (1, 2):
            assert procs[pid].current_leader == 1, (
                pid,
                sim.run.tagged_outputs(pid, "omega"),
            )

    def test_unchanged_dag_reuses_the_last_extraction(self, monkeypatch):
        import repro.cht.reduction as reduction
        from repro.sim.context import Context

        fresh = []

        def counting(dag, *args, **kwargs):
            fresh.append(len(dag))
            return extract_leader(dag, *args, **kwargs)

        monkeypatch.setattr(reduction, "extract_leader", counting)
        proc = OmegaExtractionProcess(
            ec_factory, bounds=SMALL_BOUNDS, analyze_every=1, max_samples=2
        )
        proc.attach(0, 2)
        logged = []

        def tick():
            ctx = Context(pid=0, n=2, time=len(logged), fd_value=0)
            proc.on_timeout(ctx)
            logged.extend(ctx.drain_log())
            return proc.extractions_run, proc.extractions_reused, len(fresh)

        # Two sampling rounds: the DAG grows, each one extracts afresh.
        assert tick() == (1, 0, 1)
        assert tick() == (2, 0, 2)
        # Sampling stopped (max_samples): same snapshot, result reused —
        # and a reused round replays nothing.
        result = proc.last_result
        replayed = proc.steps_executed, proc.steps_shared
        assert replayed[0] > 0 and replayed[1] > 0
        assert tick() == (3, 1, 2)
        assert proc.last_result is result
        assert (proc.steps_executed, proc.steps_shared) == replayed
        # Merging one new gossiped vertex forces a fresh extraction...
        peer = SampleDag()
        peer.add_sample(1, 0)
        gossip = reduction.DagGossip(peer.snapshot())
        proc.on_message(Context(pid=0, n=2, time=0, fd_value=0), 1, gossip)
        assert tick() == (4, 1, 3)
        assert proc.steps_executed > replayed[0] and proc.steps_shared > replayed[1]
        # ...merging the same gossip again changes nothing...
        proc.on_message(Context(pid=0, n=2, time=0, fd_value=0), 1, gossip)
        assert tick() == (5, 2, 3)
        # ...while one more local sample forces one again.
        proc.dag.add_sample(0, 0)
        assert tick() == (6, 2, 4)
        assert fresh == [1, 2, 3, 4]
        # A reused round still logs its ("extraction", ...) line; the step
        # counters are the process's alone, not the log's or the result's.
        assert [line[0] for line in logged] == ["extraction"] * 6
        assert {len(line) for line in logged} == {5}
        assert [f.name for f in dataclasses.fields(result)] == [
            "leader", "confidence", "instance", "gadget",
            "tree_nodes", "dag_vertices", "bivalent_node", "truncated", "cut_by",
        ]
        # A window that moves back to a shape already extracted from reuses
        # that round, though every query index in it has moved on: the
        # windows hold values [0], [0, 1], [1, 0], [0, 1], [1, 0].
        fresh.clear()
        windowed = OmegaExtractionProcess(
            ec_factory, bounds=SMALL_BOUNDS, analyze_every=1, window=2
        )
        windowed.attach(0, 2)
        rounds, results = [], []
        for time, trusted in enumerate((0, 1, 0, 1, 0)):
            windowed.on_timeout(Context(pid=0, n=2, time=time, fd_value=trusted))
            rounds.append((windowed.extractions_run, windowed.extractions_reused))
            results.append(windowed.last_result)
        assert rounds == [(1, 0), (2, 0), (3, 0), (4, 1), (5, 2)]
        assert fresh == [1, 2, 2]
        assert results[3] is results[1] and results[4] is results[2]

    def test_reduction_parameter_validation(self):
        with pytest.raises(ValueError):
            OmegaExtractionProcess(ec_factory, analyze_every=0)


#: Per EXP-7 scenario (``repro.analysis.experiments.cht.SCENARIOS``, in
#: order): the emulated leader and ``extractions`` column of EXPERIMENTS.md,
#: the caps that cut each correct process's final extraction, and how many
#: fresh extractions each set of caps cut. No tree reaches the depth cap
#: (every DAG path ends by depth 4 under ``max_depth=5``); ``max_nodes=800``
#: cuts all but the churn scenario's four windowed trees, which explore
#: their whole window.
EXP7_PINS = (
    (1, 20, frozenset({"max_nodes"}), {("max_nodes",): 4}),
    (1, 28, frozenset(), {("max_nodes",): 9, (): 4}),
    (2, 41, frozenset({"max_nodes"}), {("max_nodes",): 6}),
)


@pytest.mark.parametrize("index", range(len(EXP7_PINS)))
def test_exp7_values_and_cuts_per_scenario(monkeypatch, index):
    from repro.analysis.experiments.cht import SCENARIOS, run_cht_scenario
    from repro.cht import reduction

    fresh = []

    def recording(*args, **kwargs):
        fresh.append(extract_leader(*args, **kwargs))
        return fresh[-1]

    monkeypatch.setattr(reduction, "extract_leader", recording)
    __, *scenario = SCENARIOS[index]
    pattern, procs = run_cht_scenario(*scenario)
    leader, extractions, final_cuts, fresh_cuts = EXP7_PINS[index]
    correct = [procs[pid] for pid in pattern.correct]
    assert {proc.current_leader for proc in correct} == {leader}
    assert leader in pattern.correct
    assert sum(proc.extractions_run for proc in correct) == extractions
    assert {proc.last_result.cut_by for proc in correct} == {final_cuts}
    assert all(proc.last_result.confidence == "gadget" for proc in correct)
    cuts: dict[tuple, int] = {}
    for result in fresh:
        key = tuple(sorted(result.cut_by))
        cuts[key] = cuts.get(key, 0) + 1
        assert result.truncated == bool(result.cut_by - {"max_depth"})
    assert cuts == fresh_cuts
