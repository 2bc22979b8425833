"""Tests for Algorithm 5: ETOB using Omega (Lemma 3).

Covers the three headline properties:
(P1) two-step delivery is exercised in the benchmarks (latency); here we test
     the protocol's safety/liveness through the ETOB checker;
(P2) with Omega stable from the start, the run satisfies *strong* TOB;
(P3) causal order holds at all times, including divergence periods.
"""

from dataclasses import replace

from repro.core.etob import EtobLayer
from repro.core.messages import payloads
from repro.properties import check_causal_order, check_etob, check_tob
from repro.sim import RunSpec, run_plan

from mutants import EtobDuplicateDelivery, register_mutants
from tests.helpers import etob_sim, feed_broadcasts

BROADCASTS = [(0, 10, "m0"), (1, 40, "m1"), (2, 80, "m2"), (0, 160, "m3")]


class TestEtobSpec:
    def test_stable_leader_satisfies_strong_tob(self):
        sim = etob_sim(n=4, tau_omega=0)
        feed_broadcasts(sim, BROADCASTS)
        sim.run_until(600)
        report = check_tob(sim.run)
        assert report.ok, report.violations

    def test_churn_then_stabilization_satisfies_etob(self):
        sim = etob_sim(n=4, tau_omega=250, pre_behavior="rotate", seed=2)
        feed_broadcasts(sim, BROADCASTS + [(3, 300, "m4"), (1, 350, "m5")])
        sim.run_until(900)
        report = check_etob(sim.run)
        assert report.ok, report.violations
        assert report.tau <= 900

    def test_final_sequences_identical_across_correct(self):
        sim = etob_sim(n=5, tau_omega=200, pre_behavior="random", seed=9)
        feed_broadcasts(sim, [(p, 20 + 30 * p, f"x{p}") for p in range(5)])
        sim.run_until(900)
        from repro.properties import extract_timeline

        tl = extract_timeline(sim.run)
        finals = {payloads(tl.final_sequence(pid)) for pid in range(5)}
        assert len(finals) == 1
        assert set(next(iter(finals))) == {f"x{p}" for p in range(5)}

    def test_crashed_broadcaster_message_still_delivered_if_disseminated(self):
        # p3 broadcasts at t=100 and crashes at t=120: its update had time to
        # reach others, so the message must end up delivered everywhere.
        sim = etob_sim(n=4, crashes={3: 120}, tau_omega=0)
        feed_broadcasts(sim, [(3, 100, "last words"), (0, 200, "after")])
        sim.run_until(700)
        report = check_etob(sim.run)
        assert report.ok, report.violations
        from repro.properties import extract_timeline

        tl = extract_timeline(sim.run)
        for pid in (0, 1, 2):
            assert "last words" in payloads(tl.final_sequence(pid))

    def test_no_creation_and_no_duplication(self):
        sim = etob_sim(n=4, tau_omega=100, seed=4)
        feed_broadcasts(sim, BROADCASTS)
        sim.run_until(700)
        report = check_etob(sim.run)
        assert report.no_creation_ok
        assert report.no_duplication_ok


class TestAnyEnvironment:
    def test_minority_correct_stays_live(self):
        # 2 of 5 correct: consensus-based TOB would block; ETOB must not.
        sim = etob_sim(n=5, crashes={0: 90, 1: 90, 2: 90}, tau_omega=150)
        feed_broadcasts(sim, [(3, 200, "after-crash-1"), (4, 260, "after-crash-2")])
        sim.run_until(900)
        report = check_etob(sim.run, correct={3, 4})
        assert report.ok, report.violations

    def test_single_survivor_delivers_own_messages(self):
        sim = etob_sim(n=3, crashes={0: 50, 1: 50}, tau_omega=100)
        feed_broadcasts(sim, [(2, 120, "alone")])
        sim.run_until(600)
        report = check_etob(sim.run, correct={2})
        assert report.ok, report.violations


class TestStrongModeProperty:
    """Paper property (2): stable Omega from the start => strong TOB."""

    def test_strong_tob_with_crashes(self):
        sim = etob_sim(n=5, crashes={4: 150}, tau_omega=0)
        feed_broadcasts(sim, BROADCASTS + [(4, 100, "from-doomed")])
        sim.run_until(800)
        report = check_tob(sim.run)
        assert report.ok, report.violations

    def test_divergence_observable_before_stabilization(self):
        # With per-process rotating leaders and concurrent broadcasts, at
        # least one stability or order violation should be observable before
        # tau — demonstrating the run is *not* strong TOB, only eventual.
        sim = etob_sim(n=4, tau_omega=400, pre_behavior="rotate", timeout=3, seed=8)
        feed_broadcasts(
            sim, [(p, 15 + 17 * i + p, f"m{i}.{p}") for i in range(6) for p in range(4)]
        )
        sim.run_until(1200)
        report = check_etob(sim.run)
        assert report.ok, report.violations
        assert report.tau > 0, "expected observable divergence before stabilization"


class TestCausalOrder:
    """Paper property (3): TOB-Causal-Order, with no stabilization prefix."""

    def test_causal_chains_respected_under_churn(self):
        sim = etob_sim(n=4, tau_omega=300, pre_behavior="rotate", seed=6)
        feed_broadcasts(
            sim,
            [(0, 10, "root"), (1, 120, "reply-1"), (2, 240, "reply-2"), (3, 360, "reply-3")],
        )
        sim.run_until(1000)
        causal = check_causal_order(sim.run)
        assert causal.ok, causal.violations
        assert causal.pairs_checked > 0

    def test_explicit_dependencies(self):
        sim = etob_sim(n=3, tau_omega=0)
        sim.add_input(0, 10, ("broadcast", "a"))
        sim.run_until(200)
        # p1 saw "a"; broadcast "b" depending on it explicitly.
        etob = sim.processes[1].layer("etob")
        assert len(etob.graph) == 1
        (a,) = list(etob.graph)
        sim.add_input(1, 210, ("broadcast", "b", frozenset({a.uid})))
        sim.run_until(500)
        causal = check_causal_order(sim.run)
        assert causal.ok, causal.violations
        from repro.properties import extract_timeline

        tl = extract_timeline(sim.run)
        for pid in range(3):
            assert payloads(tl.final_sequence(pid)) == ("a", "b")


class TestDiagnostics:
    def test_leader_promotes_and_counts(self):
        sim = etob_sim(n=3, tau_omega=0)
        feed_broadcasts(sim, [(1, 10, "m")])
        sim.run_until(300)
        leader_layer = sim.processes[0].layer("etob")
        follower_layer = sim.processes[1].layer("etob")
        assert leader_layer.promotes_sent > 0
        assert follower_layer.promotes_sent == 0
        assert follower_layer.adoptions >= 1
        assert sim.network.pending_for(sim.correct) == 0


#: The cheapest cell that kills :class:`mutants.EtobDuplicateDelivery`: one
#: broadcast under a stable leader, so the first adoption already delivers
#: the message twice.
DUPLICATE_CELL = RunSpec(
    n=3,
    duration=60,
    protocol="etob-duplicate-delivery",
    inputs=((0, 5, ("broadcast", "m0")),),
    tau=0,
)


def test_the_cheapest_cell_kills_the_duplicating_follower(monkeypatch):
    register_mutants(monkeypatch)
    spec = DUPLICATE_CELL
    sim = run_plan(spec)
    assert isinstance(sim.processes[1].layer(EtobLayer), EtobDuplicateDelivery)
    report = check_etob(sim.run)
    assert not report.no_duplication_ok
    assert any(
        v.startswith("no-duplication: ") and v.endswith("has duplicates")
        for v in report.violations
    ), report.violations
    assert check_etob(run_plan(replace(spec, protocol="etob")).run).ok
