"""The incremental serving-stack indexes against their from-scratch definitions.

``CausalGraph`` keeps its uid order, frontier and last linearization per
insertion; ``EcToEtobLayer``, ``TobFromConsensusLayer`` and ``ReplicaLayer``
keep their batches and applied sequence per step, and
``PaxosConsensusLayer`` its open instances. Each must be
indistinguishable from recomputing the value from the whole history:

- the graph is driven op by op beside ``helpers.ReferenceCausalGraph`` (the
  pre-incremental class, verbatim) — equal results, the same
  ``LinearizationError`` in the same places;
- the layers run in Hypothesis-drawn simulations (reordering delays, leader
  churn before tau_Omega) with the from-scratch formula asserted after every
  handler call;
- fast paths are pinned by identity, ``MessageId`` by value, and whole runs
  by the digests the parent commit produced.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import BUILT_KERNELS, ReferenceCausalGraph
from tests.mutants import ReplicaAppliesUncommittedSuffix
from repro.consensus import PaxosConsensusLayer, TobFromConsensusLayer
from repro.core import EcUsingOmegaLayer, EtobLayer
from repro.core.causal_graph import CausalGraph, LinearizationError
from repro.core.messages import AppMessage, MessageId
from repro.core.transformations import EcToEtobLayer
from repro.detectors import OmegaDetector
from repro.properties import (
    CausalMonitor,
    EtobMonitor,
    check_causal_order,
    check_etob,
)
from repro.replication import KvStore, ReplicaLayer
from repro.sim import FailurePattern, ProtocolStack, Simulation, UniformDist
from repro.sim.replay import run_digest
from repro.workload import WorkloadSpec, WorkloadSummary, workload_sim

# -- CausalGraph vs the from-scratch reference, op by op ----------------------


@st.composite
def graph_programs(draw):
    """A pool of messages (each depending on earlier ones; uid order is not
    creation order) and a sequence of graph operations over it."""
    size = draw(st.integers(min_value=1, max_value=9))
    pool: list[AppMessage] = []
    for i in range(size):
        deps = draw(st.sets(st.sampled_from(range(i)), max_size=3)) if i else set()
        uid = MessageId(draw(st.integers(0, 3)), i)
        pool.append(AppMessage(uid, f"p{i}", frozenset(pool[j].uid for j in deps)))
    index = st.integers(0, size - 1)
    op = st.one_of(
        st.tuples(st.just("add"), index),
        st.tuples(st.just("add-conflicting"), index),
        # Any subset in any order: usually closed only together with what the
        # graph already holds, sometimes not at all (both sides must raise).
        st.tuples(st.just("union"), st.lists(index, unique=True, max_size=size)),
        st.tuples(st.just("union-closed"), st.permutations(range(size)), index),
        st.tuples(
            st.just("linearize"),
            st.sampled_from(
                ["own-last", "equal-copy", "stale-shorter", "empty",
                 "reversed", "repeated", "foreign"]
            ),
            st.integers(0, size),
        ),
        st.tuples(st.sampled_from(["copy", "pickle", "deepcopy"])),
    )
    return pool, draw(st.lists(op, min_size=1, max_size=14))


def _outcome(call):
    """A call's result, or the ``LinearizationError`` it raised as text."""
    try:
        return call()
    except LinearizationError as error:
        return f"LinearizationError: {error}"


def _down_closure(pool, order, count):
    """The first ``count`` messages of ``order`` plus everything they depend
    on, kept in ``order`` (so dependencies may come after dependents)."""
    by_uid = {m.uid: m for m in pool}
    wanted: set[MessageId] = set()
    stack = [pool[i].uid for i in order[:count]]
    while stack:
        uid = stack.pop()
        if uid not in wanted:
            wanted.add(uid)
            stack.extend(by_uid[uid].deps)
    return [pool[i] for i in order if pool[i].uid in wanted]


def _prefix(kind, last, cut):
    if kind == "equal-copy":
        return tuple(list(last))
    if kind == "stale-shorter":
        return last[: min(cut, len(last))]
    if kind == "empty":
        return ()
    if kind == "reversed":
        return tuple(reversed(last))
    if kind == "repeated":
        return last + last[:1]
    if kind == "foreign":
        return last + (AppMessage(MessageId(9, 9), "foreign"),)
    raise AssertionError(kind)


class TestGraphDifferential:
    @settings(max_examples=300, deadline=None)
    @given(graph_programs())
    def test_every_operation_matches_the_reference(self, program):
        pool, ops = program
        graph, ref = CausalGraph(), ReferenceCausalGraph()
        # Each side's own last linearization (what Algorithm 5 keeps as
        # promote_i); equal, but only ``last`` is the object ``graph`` made.
        last: tuple[AppMessage, ...] = ()
        ref_last: tuple[AppMessage, ...] = ()
        for op in ops:
            kind = op[0]
            if kind == "add":
                message = pool[op[1]]
                assert _outcome(lambda: graph.add(message)) == _outcome(
                    lambda: ref.add(message)
                )
            elif kind == "add-conflicting":
                original = pool[op[1]]
                message = AppMessage(
                    original.uid, "other", original.deps | {MessageId(8, 8)}
                )
                assert _outcome(lambda: graph.add(message)) == _outcome(
                    lambda: ref.add(message)
                )
            elif kind in ("union", "union-closed"):
                incoming = (
                    [pool[i] for i in op[1]]
                    if kind == "union"
                    else _down_closure(pool, op[1], op[2] + 1)
                )
                assert _outcome(lambda: graph.union(iter(incoming))) == _outcome(
                    lambda: ref.union(iter(incoming))
                )
            elif kind == "linearize":
                if op[1] == "own-last":
                    got = _outcome(lambda: graph.linearize_extending(last))
                    want = _outcome(lambda: ref.linearize_extending(ref_last))
                else:
                    prefix = _prefix(op[1], last, op[2])
                    got = _outcome(lambda: graph.linearize_extending(prefix))
                    want = _outcome(lambda: ref.linearize_extending(prefix))
                assert got == want
                if isinstance(got, tuple):
                    assert [m.payload for m in got] == [m.payload for m in want]
                    last, ref_last = got, want
            elif kind == "copy":
                graph, ref = graph.copy(), ref.copy()
            elif kind == "pickle":
                graph, last = pickle.loads(pickle.dumps((graph, last)))
            elif kind == "deepcopy":
                graph, last = copy.deepcopy((graph, last))
            else:
                raise AssertionError(kind)
            assert graph.messages() == ref.messages()
            assert [m.payload for m in graph.messages()] == [
                m.payload for m in ref.messages()
            ]
            assert graph.frontier() == ref.frontier()
            assert len(graph) == len(ref)
            assert list(graph) == list(ref)
            assert graph.edges() == ref.edges()

    @settings(max_examples=100, deadline=None)
    @given(graph_programs(), st.sampled_from(["copy", "pickle", "deepcopy"]))
    def test_clones_are_independent_and_stay_on_the_fast_path(self, program, how):
        pool, __ = program
        graph = CausalGraph(pool[:-1])
        last = graph.linearize_extending(())
        if how == "copy":
            clone, clone_last = graph.copy(), last
        elif how == "pickle":
            clone, clone_last = pickle.loads(pickle.dumps((graph, last)))
        else:
            clone, clone_last = copy.deepcopy((graph, last))
        # The clone recognises the tuple that travelled with it ...
        assert clone.linearize_extending(clone_last) is clone_last
        clone.add(pool[-1])
        # ... while the original sees nothing of what the clone learns ...
        assert len(graph) == len(pool) - 1
        assert graph.linearize_extending(last) is last
        assert graph.messages() == ReferenceCausalGraph(pool[:-1]).messages()
        assert graph.frontier() == ReferenceCausalGraph(pool[:-1]).frontier()
        # ... and the clone extends by exactly the new message.
        extended = clone.linearize_extending(clone_last)
        assert extended == ReferenceCausalGraph(pool).linearize_extending(last)
        assert clone.messages() == ReferenceCausalGraph(pool).messages()
        assert clone.frontier() == ReferenceCausalGraph(pool).frontier()


# -- fast paths and value pins -------------------------------------------------


def _chain(length):
    """m0.0 <- m0.1 <- ...: each message depends on the one before."""
    out: list[AppMessage] = []
    for i in range(length):
        deps = frozenset({out[-1].uid}) if out else frozenset()
        out.append(AppMessage(MessageId(0, i), i, deps))
    return out


class TestGraphFastPaths:
    def test_messages_snapshot_is_reused_until_an_insertion(self):
        a, b, c = _chain(3)
        graph = CausalGraph([a, b])
        first = graph.messages()
        assert graph.messages() is first
        graph.union([a, b])  # nothing new
        assert graph.messages() is first
        graph.add(c)
        assert graph.messages() == (a, b, c)
        assert graph.messages() is not first
        assert first == (a, b)  # the snapshot already sent stays frozen

    def test_linearization_of_its_own_result_is_that_result(self):
        graph = CausalGraph(_chain(3))
        order = graph.linearize_extending(())
        assert graph.linearize_extending(order) is order
        assert graph.linearize_extending(order) is order

    def test_own_result_extends_by_only_the_new_messages(self):
        a, b, c, d = _chain(4)
        graph = CausalGraph([a, b])
        order = graph.linearize_extending(())
        graph.union([d, c])
        assert graph.linearize_extending(order) == (a, b, c, d)

    def test_forged_prefix_violating_causal_order_still_raises(self):
        a, b, c = _chain(3)
        graph = CausalGraph([a, b, c])
        order = graph.linearize_extending(())
        with pytest.raises(LinearizationError, match="violates causal order"):
            graph.linearize_extending((b, a, c))
        with pytest.raises(LinearizationError, match="repeats"):
            graph.linearize_extending((a, a))
        with pytest.raises(LinearizationError, match="not in the graph"):
            graph.linearize_extending((AppMessage(MessageId(5, 5)),))
        # An equal tuple that is not the graph's own is validated, and a
        # failed call leaves the fast path where it was.
        assert graph.linearize_extending(tuple(list(order))) == order
        assert graph.linearize_extending(order) == order

    def test_stale_prefix_after_a_newer_result_is_validated_not_trusted(self):
        a, b, c = _chain(3)
        x = AppMessage(MessageId(1, 0), "x")
        graph = CausalGraph([a])
        stale = graph.linearize_extending(())
        graph.add(x)
        newer = graph.linearize_extending(stale)
        assert newer == (a, x)
        graph.union([b, c])
        # ``stale`` is no longer the last result: full path, same answer as
        # the from-scratch rule (smallest ready uid first after the prefix).
        assert graph.linearize_extending(stale) == (a, b, c, x)
        assert graph.linearize_extending(newer) == (a, x, b, c)


class TestMessageIdPins:
    def test_repr_ordering_hash_fields_pickle(self):
        uid = MessageId(1, 2)
        assert repr(uid) == "m1.2" and str(uid) == "m1.2"
        assert (uid.sender, uid.seq) == (1, 2)
        assert MessageId(sender=1, seq=2) == uid
        assert hash(uid) == hash((1, 2))
        assert sorted([MessageId(2, 0), MessageId(1, 9), MessageId(1, 2)]) == [
            MessageId(1, 2), MessageId(1, 9), MessageId(2, 0),
        ]
        assert MessageId(1, 2) < MessageId(1, 3) < MessageId(2, 0)
        assert pickle.loads(pickle.dumps(uid)) == uid
        assert type(pickle.loads(pickle.dumps(uid))) is MessageId
        assert copy.deepcopy(uid) == uid
        with pytest.raises(AttributeError):
            uid.seq = 3  # type: ignore[misc]

    def test_nested_reprs_unchanged(self):
        message = AppMessage(MessageId(0, 1), "v", frozenset({MessageId(0, 0)}))
        assert repr(message) == "AppMessage(m0.1, 'v')"
        assert repr(message.deps) == "frozenset({m0.0})"


# -- the three layers inside drawn runs ----------------------------------------

HANDLERS = ("on_call", "on_input", "on_message", "on_lower_event", "on_timeout")


def checked(layer_cls, check, **extra):
    """``layer_cls`` with ``check(layer)`` run after every handler call."""

    def wrap(name):
        handler = getattr(layer_cls, name)

        def wrapped(self, ctx, *args):
            handler(self, ctx, *args)
            check(self)

        return wrapped

    members = {name: wrap(name) for name in HANDLERS}
    members.update(extra)
    return type(f"Checked{layer_cls.__name__}", (layer_cls,), members)


def _by_uid(messages):
    return tuple(sorted(messages, key=lambda m: m.uid))


def _check_new_batch(layer):
    # NewBatch(d_i, toDeliver_i), as Algorithm 1 writes it.
    assert layer._new_batch() == _by_uid(layer.to_deliver - set(layer.delivered))


def _counting_decisions(self, ctx, event):
    """``on_lower_event`` that counts adopted decisions not extending d_i."""
    before = self.delivered
    EcToEtobLayer.on_lower_event(self, ctx, event)
    if self.delivered[: len(before)] != before:
        self.non_extending += 1
    _check_new_batch(self)


CheckedEcToEtob = checked(
    EcToEtobLayer, _check_new_batch,
    on_lower_event=_counting_decisions, non_extending=0,
)


def _check_undelivered_batch(layer):
    assert layer._undelivered_batch() == _by_uid(
        m for uid, m in layer.pending.items() if uid not in layer._delivered_ids
    )


CheckedTob = checked(TobFromConsensusLayer, _check_undelivered_batch)


def _check_open_instances(layer):
    # Every instance proposed, forwarded or constrained by the last prepare,
    # minus the decided ones: the scan the open-instance sets replace.
    known = set(layer.my_proposals) | set(layer.candidates) | set(layer._constrained)
    assert layer._undecided_instances() == sorted(
        inst for inst in known if inst not in layer.decided
    )


CheckedPaxos = checked(PaxosConsensusLayer, _check_open_instances)


def _check_replica(layer):
    state = layer.machine.initial()
    results = []
    for message in layer.applied_seq:
        state, result = layer.machine.apply(state, message.payload[2])
        results.append(result)
    assert layer.state == state
    assert layer._results == results
    assert len(layer._states) == len(layer.applied_seq) + 1


def _checked_adopt(self, ctx, sequence):
    before = self.applied_seq
    keep = 0
    for ours, theirs in zip(before, sequence):
        if ours.uid != theirs.uid:
            break
        keep += 1
    rollbacks = self.rollbacks + (keep < len(before))
    ReplicaLayer._adopt(self, ctx, sequence)
    expected = before[:keep] + tuple(sequence[keep:])
    assert len(self.applied_seq) == len(expected)
    assert all(a is b for a, b in zip(self.applied_seq, expected))
    assert self.rollbacks == rollbacks


CheckedReplica = checked(ReplicaLayer, _check_replica, _adopt=_checked_adopt)


class ShadowGraph:
    """A ``CausalGraph`` and the reference side by side behind the calls
    ``EtobLayer`` makes; every answer is compared before it is returned."""

    def __init__(self):
        self.real, self.ref = CausalGraph(), ReferenceCausalGraph()
        self.ref_promote: tuple[AppMessage, ...] = ()

    def add(self, message):
        self.real.add(message)
        self.ref.add(message)

    def union(self, incoming):
        self.real.union(incoming)
        self.ref.union(incoming)

    def linearize_extending(self, prefix):
        order = self.real.linearize_extending(prefix)
        self.ref_promote = self.ref.linearize_extending(self.ref_promote)
        assert order == self.ref_promote
        return order

    def frontier(self):
        assert self.real.frontier() == self.ref.frontier()
        return self.real.frontier()

    def messages(self):
        assert self.real.messages() == self.ref.messages()
        return self.real.messages()


class ShadowedEtob(EtobLayer):
    def __init__(self):
        super().__init__()
        self.graph = ShadowGraph()


BROADCAST_LAYERS = {
    "etob": lambda: [ShadowedEtob()],
    "ec": lambda: [EcUsingOmegaLayer(), CheckedEcToEtob()],
    "paxos": lambda: [CheckedPaxos(), CheckedTob()],
}
PLAIN_LAYERS = {
    "etob": lambda: [EtobLayer()],
    "ec": lambda: [EcUsingOmegaLayer(), EcToEtobLayer()],
    "paxos": lambda: [PaxosConsensusLayer(), TobFromConsensusLayer()],
}


def replicated_run(
    stack, *, seed, tau_omega, delay_hi, invocations, n=3, checks=True,
    horizon=420, replica=None, **options,
):
    """``n`` KV replicas over ``stack`` under reordering delays and an Omega
    that rotates leaders until ``tau_omega``; returns the finished sim.
    ``replica`` replaces the replica layer's class; ``options`` override the
    :class:`Simulation` keywords (``record``, ``kernel``, ``observers``)."""
    pattern = FailurePattern.no_failures(n)
    detector = OmegaDetector(
        stabilization_time=tau_omega, pre_behavior="rotate", churn_period=5
    ).history(pattern, seed=seed)
    layers = (BROADCAST_LAYERS if checks else PLAIN_LAYERS)[stack]
    replica = replica or (CheckedReplica if checks else ReplicaLayer)
    sim = Simulation(
        [ProtocolStack(layers() + [replica(KvStore())]) for __ in range(n)],
        failure_pattern=pattern,
        detector=detector,
        delay_model=UniformDist(1, delay_hi, seed=seed),
        timeout_interval=3,
        seed=seed,
        **{"record": "outputs", **options},
    )
    for k, (pid, time) in enumerate(invocations):
        sim.add_input(pid % n, time, ("invoke", ("set", f"k{k % 3}", k)))
    sim.run_until(horizon)
    return sim


def _replicas(sim):
    return [process.layer("replica") for process in sim.processes]


#: One fixed run of the drawn regime in which Omega stabilises late enough
#: for every divergence branch to execute (asserted below).
CHURN = dict(
    seed=26, tau_omega=140, delay_hi=7,
    invocations=[(k, 4 + 5 * k) for k in range(14)],
)

invocation_lists = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 160)), min_size=3, max_size=12
)


class TestLayersInsideRuns:
    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(sorted(BROADCAST_LAYERS)),
        st.integers(0, 10_000),
        st.integers(0, 150),
        st.integers(1, 9),
        invocation_lists,
    )
    def test_incremental_values_equal_their_formulas(
        self, stack, seed, tau_omega, delay_hi, invocations
    ):
        # The assertions are inside the checked layers; a run that finishes
        # passed all of them.
        sim = replicated_run(
            stack, seed=seed, tau_omega=tau_omega, delay_hi=delay_hi,
            invocations=invocations,
        )
        if stack == "paxos":
            assert sum(r.rollbacks for r in _replicas(sim)) == 0

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(sorted(BROADCAST_LAYERS)),
        st.integers(0, 10_000),
        st.integers(0, 150),
        st.integers(1, 9),
        invocation_lists,
    )
    def test_live_monitors_equal_their_replays(
        self, stack, seed, tau_omega, delay_hi, invocations
    ):
        # The ETOB and causal monitors ride a record="metrics" run on every
        # built kernel; their reports must equal the checkers' replay of the
        # same run retained at record="outputs", field for field.
        args = dict(
            seed=seed, tau_omega=tau_omega, delay_hi=delay_hi,
            invocations=invocations, checks=False,
        )
        run = replicated_run(stack, **args).run
        replays = [check_etob(run), check_causal_order(run)]
        for kernel in BUILT_KERNELS:
            monitors = [EtobMonitor(range(3)), CausalMonitor(range(3))]
            replicated_run(
                stack, record="metrics", kernel=kernel, observers=monitors,
                **args,
            )
            assert [monitor.report() for monitor in monitors] == replays

    @pytest.mark.parametrize("stack", ["etob", "ec"])
    def test_the_drawn_regime_reaches_rollbacks_and_rebuilds(self, stack):
        """Leader churn makes d_i shrink and reorder, so the divergence
        branches (uid-by-uid prefix search, from-scratch batch rebuild) run
        under the checks above, not only the extension fast paths."""
        sim = replicated_run(stack, **CHURN)
        assert sum(r.rollbacks for r in _replicas(sim)) > 0
        if stack == "ec":
            layers = [p.layer("ec-to-etob") for p in sim.processes]
            assert sum(layer.non_extending for layer in layers) > 0
        states = [r.state for r in _replicas(sim)]
        assert states[0] == states[1] == states[2]
        assert len(_replicas(sim)[0].applied_seq) == len(CHURN["invocations"])

    def test_checked_layers_do_not_change_the_run(self):
        for stack in BROADCAST_LAYERS:
            digests = {
                run_digest(replicated_run(stack, checks=checks, **CHURN))
                for checks in (True, False)
            }
            assert len(digests) == 1


# -- a replica that skips its rollback ---------------------------------------------


def replica_violations(sim) -> list[str]:
    """One line per replica whose state is not the sequence its broadcast
    layer last delivered applied in order, and one if the replicas end the
    run in different states."""
    lines = []
    for pid, process in enumerate(sim.processes):
        replica = process.layer("replica")
        state = replica.machine.initial()
        for message in process.layers[-2].delivered:
            state, __ = replica.machine.apply(state, message.payload[2])
        if replica.state != state:
            lines.append(
                f"p{pid}: state {replica.state} is not its delivered "
                f"sequence applied in order ({state})"
            )
    states = [replica.state for replica in _replicas(sim)]
    if any(state != states[0] for state in states):
        lines.append(f"replicas end in different states: {states}")
    return lines


#: the cheapest killing cell of a scratch sweep (n = 3; 2 to 6 writes;
#: tau_Omega 10, 20, 40; delays up to 3, 5, 7; seeds 0 to 7): Omega rotates
#: until tick 40, and p0 is delivered (m1.0, m0.0) before (m0.0, m1.0).
UNCOMMITTED_SUFFIX_CELL = dict(
    seed=3, tau_omega=40, delay_hi=7, invocations=[(0, 4), (1, 9)],
    horizon=45,
)


def test_the_cheapest_cell_kills_the_replica_applying_an_uncommitted_suffix():
    real = replicated_run("etob", checks=False, **UNCOMMITTED_SUFFIX_CELL)
    assert replica_violations(real) == []
    assert sum(replica.rollbacks for replica in _replicas(real)) > 0
    mutant = replicated_run(
        "etob", checks=False, replica=ReplicaAppliesUncommittedSuffix,
        **UNCOMMITTED_SUFFIX_CELL,
    )
    assert replica_violations(mutant) == [
        "p0: state {'k0': 0} is not its delivered sequence applied in order "
        "({'k0': 0, 'k1': 1})",
        "replicas end in different states: "
        "[{'k0': 0}, {'k0': 0, 'k1': 1}, {'k1': 1, 'k0': 0}]",
    ]


# -- whole runs pinned from the parent commit ------------------------------------

#: ``run_digest`` and summary of ``workload_sim(PIN_SPEC, stack=..., env=
#: "uniform", retry_after=300, record="outputs")`` run to its horizon. The
#: incremental indexes left them unchanged; the mixer-keyed counter draws
#: (``repro.sim.types.draw_unit`` / ``draw_below``) re-pinned them.
PIN_SPEC = WorkloadSpec(clients=3, ops_per_client=25, mean_gap=24, seed=7)
PINNED_CELLS = {
    "etob": (
        8874736030917376791,
        WorkloadSummary(
            submitted=75, completed=75, gave_up=0, retries=0, revised=0,
            p50=20, p95=30, p99=35, mean=20.426667, max=35, span=529,
            throughput=141.776938,
        ),
    ),
    "ec": (
        6927510646788655053,
        WorkloadSummary(
            submitted=75, completed=75, gave_up=0, retries=0, revised=0,
            p50=30, p95=43, p99=51, mean=31.306667, max=51, span=529,
            throughput=141.776938,
        ),
    ),
    "paxos": (
        5637516599535107535,
        WorkloadSummary(
            submitted=75, completed=75, gave_up=0, retries=0, revised=0,
            p50=52, p95=72, p99=87, mean=51.146667, max=87, span=547,
            throughput=137.111517,
        ),
    ),
}
#: ``run_digest`` of ``replicated_run("etob", **CHURN)`` (Omega stabilises at
#: tick 140), plus each replica's ``(rollbacks, reexecuted_commands)``.
#: Re-pinned when the run's uniform delays became counter-based draws.
PINNED_LATE_OMEGA = (6349431299163528062, [(6, 51), (6, 60), (8, 85)])


class TestPinnedRuns:
    @pytest.mark.parametrize("stack", ["etob", "ec", "paxos"])
    def test_workload_cell_unchanged(self, stack):
        sim, observer, horizon = workload_sim(
            PIN_SPEC, stack=stack, env="uniform", retry_after=300,
            record="outputs",
        )
        sim.run_until(horizon)
        assert (run_digest(sim), observer.summary()) == PINNED_CELLS[stack]

    def test_late_omega_etob_cell_unchanged(self):
        sim = replicated_run("etob", checks=False, **CHURN)
        replicas = [(r.rollbacks, r.reexecuted_commands) for r in _replicas(sim)]
        assert (run_digest(sim), replicas) == PINNED_LATE_OMEGA
