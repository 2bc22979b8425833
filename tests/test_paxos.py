"""Tests for the Paxos consensus baseline (Omega + majority / Omega + Sigma)."""

from dataclasses import replace

import pytest

from repro.consensus import PaxosConsensusLayer
from repro.core import EcDriverLayer
from repro.detectors import CompositeDetector, OmegaDetector, SigmaDetector
from repro.properties import check_ec, check_etob, check_tob
from repro.sim import (
    FailurePattern,
    FixedDelay,
    ProtocolStack,
    RunSpec,
    Simulation,
    run_plan,
)
from repro.sim.envs import make_env

from mutants import (
    PaxosAcceptWithoutPromiseCheck,
    PaxosLearnerPoolsAcksAcrossBallots,
    SigmaLearnerWithoutRetest,
    register_mutants,
)


def paxos_sim(
    n=5,
    crashes=None,
    tau_omega=0,
    pre_behavior="rotate",
    quorum_mode="majority",
    instances=3,
    seed=0,
):
    pattern = FailurePattern.crash(n, crashes or {})
    omega = OmegaDetector(stabilization_time=tau_omega, pre_behavior=pre_behavior)
    if quorum_mode == "sigma":
        detector = CompositeDetector(
            {"omega": omega, "sigma": SigmaDetector(stabilization_time=tau_omega)}
        ).history(pattern, seed=seed)
    else:
        detector = omega.history(pattern, seed=seed)
    procs = [
        ProtocolStack(
            [
                PaxosConsensusLayer(quorum_mode=quorum_mode),
                EcDriverLayer(max_instances=instances),
            ]
        )
        for _ in range(n)
    ]
    return Simulation(
        procs,
        failure_pattern=pattern,
        detector=detector,
        delay_model=FixedDelay(2),
        timeout_interval=4,
        seed=seed,
    )


class TestMajorityQuorums:
    def test_agreement_from_instance_one_even_with_churn(self):
        # Unlike EC, consensus never disagrees — even before Omega stabilizes.
        sim = paxos_sim(n=4, tau_omega=200, instances=4, seed=3)
        sim.run_until(4000)
        report = check_ec(sim.run, expected_instances=4)
        assert report.ok, report.violations
        assert report.agreement_index == 1, "strong consensus must never disagree"

    def test_tolerates_minority_crashes(self):
        sim = paxos_sim(n=5, crashes={3: 60, 4: 90}, instances=3)
        sim.run_until(3000)
        report = check_ec(sim.run, expected_instances=3)
        assert report.ok, report.violations
        assert report.agreement_index == 1

    def test_blocks_without_correct_majority(self):
        # 2 of 5 correct: no decision must ever be reached.
        sim = paxos_sim(n=5, crashes={0: 40, 1: 40, 2: 40}, tau_omega=100, instances=3)
        sim.run_until(3000)
        for pid in (3, 4):
            decisions = [
                (i, v)
                for __, (i, v) in sim.run.tagged_outputs(pid, "decide")
                # decisions reached strictly after the crashes
            ]
            post_crash = [
                d
                for t, d in zip(
                    [t for t, __ in sim.run.tagged_outputs(pid, "decide")], decisions
                )
                if t > 60
            ]
            assert not post_crash, f"p{pid} decided without a majority: {post_crash}"

    def test_leader_crash_recovery(self):
        # The stable leader crashes; Omega re-stabilizes on the next process.
        pattern = FailurePattern.crash(5, {0: 150})
        detector = OmegaDetector(stabilization_time=0).history(pattern)
        procs = [
            ProtocolStack([PaxosConsensusLayer(), EcDriverLayer(max_instances=4)])
            for _ in range(5)
        ]
        sim = Simulation(
            procs,
            failure_pattern=pattern,
            detector=detector,
            delay_model=FixedDelay(2),
            timeout_interval=4,
        )
        sim.run_until(5000)
        report = check_ec(sim.run, expected_instances=4)
        assert report.ok, report.violations
        assert report.agreement_index == 1


#: TOB over Sigma-quorum Paxos, each run one whose learner was stranded when
#: ack sets were tested only as acks arrived: Sigma named a process that
#: never acked the ballot, then settled, and nothing re-tested. The first is
#: the run that located the hole (p3 delivered 3 of 8 while p2 and p4
#: delivered 8).
SIGMA_SETTLES_CELLS = [
    ("baseline", 1, 5),
    ("baseline", 2, 4),
    ("uniform", 0, 5),
    ("uniform", 1, 4),
    ("heavy-tail", 1, 5),
    ("heavy-tail", 3, 4),
    ("flaky", 1, 5),
    ("flaky", 2, 4),
]


def sigma_settles_spec(env: str, seed: int, n: int) -> RunSpec:
    """One of :data:`SIGMA_SETTLES_CELLS`: three correct processes
    broadcast eight messages while the other ``n - 3`` crash at t = 120 and
    Omega and Sigma settle at t = 400."""
    correct = range(n - 3, n)
    return RunSpec(
        n=n,
        duration=3_000,
        protocol="tob-consensus",
        protocol_args=(("quorum_mode", "sigma"),),
        crashes=tuple((pid, 120) for pid in range(n - 3)),
        inputs=tuple(
            (correct[k % 3], 20 + 37 * k, ("broadcast", f"m{k}")) for k in range(8)
        ),
        seed=seed,
        tau=400,
        links=make_env(env, seed=seed, base_delay=2).delay,
        timeout_interval=2,
        message_batch=4,
    )


#: The cheapest cell that kills the acceptor without the promise check:
#: n = 3, Omega rotating until t = 40, each process broadcasting twice,
#: ``age-gst`` links (chaotic until GST = 150) at seed 0; about 2 ms. A
#: scratch sweep (n of 3 to 5 x six envs x tau of 40, 100 or 200 x
#: ``rotate`` / ``random`` x seeds 0-3 x 2 or 4 broadcasts each, 1 728
#: cells) killed it on 86 cells: 36 under ``age-gst``, 25 ``late-links``,
#: 24 ``heavy-tail``, 1 ``uniform``, none under ``baseline`` or ``flaky``.
#: The real layer passed ``check_tob`` on all 86.
PROMISE_CHECK_CELL = RunSpec(
    n=3,
    duration=340,
    protocol="tob-consensus-accept-without-promise-check",
    inputs=tuple(
        (k % 3, 5 + 20 * k // 3, ("broadcast", f"m{k}")) for k in range(6)
    ),
    seed=0,
    tau=40,
    links=make_env("age-gst", seed=0, base_delay=2).delay,
    timeout_interval=2,
    message_batch=4,
)


def test_the_cheapest_cell_kills_the_acceptor_without_the_promise_check(
    monkeypatch,
):
    # A leader overtaken by a newer ballot still gathers accepts for its
    # value, so the processes decide one instance differently and end on
    # sequences that order m0 and m1 apart.
    real_spec = replace(PROMISE_CHECK_CELL, protocol="tob-consensus")
    real = check_tob(run_plan(real_spec).run)
    assert real.ok, real.violations
    register_mutants(monkeypatch)
    sim = run_plan(PROMISE_CHECK_CELL)
    assert isinstance(
        sim.processes[0].layer(PaxosConsensusLayer), PaxosAcceptWithoutPromiseCheck
    )
    report = check_tob(sim.run)
    assert not report.ok
    assert report.etob.tau_total_order == 85
    assert report.violations == [
        "total-order: p0 and p1 still order common messages differently at "
        "the end of the run",
        "total-order: p1 and p2 still order common messages differently at "
        "the end of the run",
        "total order violated until t=84 (strong TOB requires none)",
    ]


def test_the_promise_check_mutant_fails_etob_total_order(monkeypatch):
    # The conflict is still open when the run ends: ETOB's total order never
    # held, so check_etob fails too, not only strong TOB.
    real_spec = replace(PROMISE_CHECK_CELL, protocol="tob-consensus")
    real = check_etob(run_plan(real_spec).run)
    assert real.ok and real.total_order_ok, real.violations
    register_mutants(monkeypatch)
    report = check_etob(run_plan(PROMISE_CHECK_CELL).run)
    assert not report.ok
    assert not report.total_order_ok
    assert report.validity_ok and report.agreement_ok
    assert report.no_creation_ok and report.no_duplication_ok


#: The cheapest cell that kills the learner pooling acks across ballots:
#: ``PROMISE_CHECK_CELL``'s shape with Omega random until t = 100 and
#: ``late-links`` links at seed 3, 400 ticks; about 1 ms. A scratch sweep of
#: that shape with duration tau + 300 (n of 3 to 5 x six envs x tau of 40,
#: 100 or 200 x ``rotate`` / ``random`` x seeds 0-3 x 2 or 4 broadcasts each,
#: 864 cells) killed it on 5: four ``late-links`` at n = 3, seed 3 under
#: ``random``, and one ``heavy-tail``. The real layer passed ``check_tob`` on
#: all 5.
POOLED_ACKS_CELL = replace(
    PROMISE_CHECK_CELL,
    duration=400,
    protocol="tob-consensus-pooled-acks",
    seed=3,
    tau=100,
    pre="random",
    links=make_env("late-links", seed=3, base_delay=2).delay,
)


def test_the_cheapest_cell_kills_the_learner_pooling_acks_across_ballots(
    monkeypatch,
):
    # Acks for different values under different ballots add up to a quorum
    # that accepted neither value, so two learners decide one instance
    # differently and the processes end on sequences in different orders.
    real_spec = replace(POOLED_ACKS_CELL, protocol="tob-consensus")
    real = check_tob(run_plan(real_spec).run)
    assert real.ok, real.violations
    register_mutants(monkeypatch)
    sim = run_plan(POOLED_ACKS_CELL)
    assert isinstance(
        sim.processes[0].layer(PaxosConsensusLayer),
        PaxosLearnerPoolsAcksAcrossBallots,
    )
    report = check_tob(sim.run)
    assert not report.ok
    assert not report.etob.total_order_ok
    assert report.etob.validity_ok and report.etob.agreement_ok
    assert report.violations == [
        "total-order: p0 and p1 still order common messages differently at "
        "the end of the run",
        "total-order: p1 and p2 still order common messages differently at "
        "the end of the run",
        "total order violated until t=83 (strong TOB requires none)",
    ]


class TestSigmaQuorums:
    def test_decides_with_majority(self):
        sim = paxos_sim(n=4, quorum_mode="sigma", instances=3)
        sim.run_until(3000)
        report = check_ec(sim.run, expected_instances=3)
        assert report.ok, report.violations
        assert report.agreement_index == 1

    def test_decides_without_correct_majority(self):
        # The headline gap: with Sigma, consensus is live even when only a
        # minority (2 of 5) of processes is correct.
        sim = paxos_sim(
            n=5,
            crashes={0: 40, 1: 40, 2: 40},
            tau_omega=120,
            quorum_mode="sigma",
            instances=3,
        )
        sim.run_until(6000)
        report = check_ec(sim.run, correct={3, 4}, expected_instances=3)
        assert report.ok, report.violations
        assert report.agreement_index == 1

    @pytest.mark.parametrize("env,seed,n", SIGMA_SETTLES_CELLS)
    def test_learners_retest_their_acks_once_sigma_settles(self, env, seed, n):
        sim = run_plan(sigma_settles_spec(env, seed, n))
        report = check_tob(sim.run)
        assert report.ok, report.violations
        for pid in range(n - 3, n):
            paxos = sim.processes[pid].layer(PaxosConsensusLayer)
            assert set(paxos._accept_acks).isdisjoint(paxos.decided)

    @pytest.mark.parametrize("env,seed,n", SIGMA_SETTLES_CELLS)
    def test_every_cell_kills_the_learner_without_the_retest(
        self, env, seed, n, monkeypatch
    ):
        # The same run with the mutant in place of every Paxos layer: some
        # correct process never delivers its own broadcast.
        register_mutants(monkeypatch)
        sim = run_plan(
            replace(
                sigma_settles_spec(env, seed, n),
                protocol="tob-consensus-without-retest",
            )
        )
        assert isinstance(
            sim.processes[0].layer(PaxosConsensusLayer), SigmaLearnerWithoutRetest
        )
        report = check_tob(sim.run)
        assert not report.etob.validity_ok
        assert any(
            v.startswith("validity: ") and "never stably delivered" in v
            for v in report.violations
        ), report.violations


class TestMechanics:
    def test_rejects_non_integer_instances(self):
        import pytest

        from repro.sim.context import Context
        from repro.sim.errors import ProtocolError
        from repro.sim.stack import LayerContext, ProtocolStack as PS

        stack = PS([PaxosConsensusLayer()])
        stack.attach(0, 3)
        ctx = LayerContext(stack, Context(pid=0, n=3, time=0, fd_value=0), 0)
        with pytest.raises(ProtocolError):
            stack.layers[0].on_call(ctx, ("propose", "one", "v"))

    def test_rejects_unknown_quorum_mode(self):
        import pytest

        with pytest.raises(ValueError):
            PaxosConsensusLayer(quorum_mode="everyone")

    def test_decided_value_is_some_proposal(self):
        sim = paxos_sim(n=3, tau_omega=60, instances=5, seed=9)
        sim.run_until(5000)
        report = check_ec(sim.run, expected_instances=5)
        assert report.validity_ok, report.violations
