"""Every mutant of :mod:`mutants`, and the arrival-order ETOB ablation
shipped for EXP-6, trips its property monitor live.

Each mutant's killing cell runs at ``record="metrics"``, which retains no
output history, with the matching monitor attached through ``observers=``.
The live report must flip the verdict the post-hoc checker flips on the
same cell at ``record="outputs"``, and equal that checker's report field
for field. With the C extension built, the monitored run must still take
the C tick loop.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.properties import (
    CausalMonitor,
    EcMonitor,
    EtobMonitor,
    check_causal_order,
    check_ec,
    check_etob,
)
from repro.sim import DEFAULT_KERNEL, build_simulation, run_plan

from mutants import MUTANT_PROTOCOLS, register_mutants
from test_ec_algorithm4 import EC_MUTANT_CELL
from test_etob_algorithm5 import DUPLICATE_CELL
from test_etob_variants import ARRIVAL_ORDER_CELL
from test_paxos import POOLED_ACKS_CELL, PROMISE_CHECK_CELL, sigma_settles_spec

#: mutant protocol -> (killing cell, monitor, checker, the verdict it flips).
CASES = {
    "tob-consensus-without-retest": (
        replace(
            sigma_settles_spec("baseline", 1, 5),
            protocol="tob-consensus-without-retest",
        ),
        EtobMonitor,
        check_etob,
        lambda report: report.validity_ok,
    ),
    "tob-consensus-accept-without-promise-check": (
        PROMISE_CHECK_CELL,
        EtobMonitor,
        check_etob,
        lambda report: report.total_order_ok,
    ),
    "tob-consensus-pooled-acks": (
        POOLED_ACKS_CELL,
        EtobMonitor,
        check_etob,
        lambda report: report.total_order_ok,
    ),
    "etob-duplicate-delivery": (
        DUPLICATE_CELL,
        EtobMonitor,
        check_etob,
        lambda report: report.no_duplication_ok,
    ),
    "ec-decides-first-proposal": (
        EC_MUTANT_CELL,
        EcMonitor,
        check_ec,
        lambda report: report.ok,
    ),
    "etob-arrival-order": (
        ARRIVAL_ORDER_CELL,
        CausalMonitor,
        check_causal_order,
        lambda report: report.ok,
    ),
}

#: ablations registered in ``repro.protocols`` itself, beside the test-only
#: mutants.
SHIPPED_ABLATIONS = {"etob-arrival-order"}


def test_every_mutant_has_a_case():
    assert set(CASES) == set(MUTANT_PROTOCOLS) | SHIPPED_ABLATIONS


@pytest.mark.parametrize("protocol", sorted(CASES))
def test_every_mutant_trips_its_monitor_live(protocol, monkeypatch):
    register_mutants(monkeypatch)
    cell, monitor_type, checker, verdict = CASES[protocol]
    assert cell.protocol == protocol
    monitor = monitor_type(cell.failure_pattern().correct)
    sim = build_simulation(replace(cell, record="metrics"), observers=[monitor])
    sim.run_until(cell.duration)
    live = monitor.report()
    posthoc = checker(run_plan(replace(cell, record="outputs")).run)
    assert not verdict(posthoc)
    assert not verdict(live)
    assert live == posthoc
    if DEFAULT_KERNEL == "compiled-loop":
        assert sim.fused_path == "c-loop", sim.fused_reason
