"""EXP-11: client-observed latency and throughput across serving stacks.

Not a paper claim but the paper's *premise*, measured: Section 1 motivates
eventual consistency entirely by the latency cost of strong coordination
("response times... below acceptable thresholds"). This experiment drives
the same open-loop client population (:mod:`repro.workload`) against four
serving stacks — no coordination, the paper's native ETOB (Algorithm 5),
EC lifted to ETOB (Algorithm 4 + Theorem 1), and Paxos-backed TOB — and
reports tail latency and throughput per network environment. The expected
shape: ``direct < etob ~ ec << paxos`` on tail latency, with every stack
still serving all operations (availability is EXP-8's subject; here the
point is the *price* of each consistency level when everything is healthy).
Every replicated stack is checked while it is timed: an
:class:`~repro.properties.EtobMonitor` over the replicas rides the run, and a
cell fails unless their deliveries are strong TOB (ok, with tau = 0).
"""

from __future__ import annotations

from repro.analysis.experiments.base import experiment
from repro.properties import EtobMonitor
from repro.suite import Axis
from repro.workload import STACKS, WorkloadSpec, workload_sim


def claim_workload_latency(rows: list[dict]) -> dict[str, bool]:
    """Client-observed latency rises with each consistency level

    Tail latency climbs the ladder: p99 of ``direct`` < ``etob`` <
    ``paxos``. Seeded: the seed draws the client population's arrivals and
    keys, and the environment's link delays.
    """
    p99 = {row["stack"]: row["p99"] for row in rows}
    ladder = [p99["direct"], p99["etob"], p99["paxos"]]
    return {
        "p99_ladder": None not in ladder and ladder[0] < ladder[1] < ladder[2],
    }


@experiment(
    "EXP-11",
    "the latency price of consistency (open-loop workload)",
    claim=claim_workload_latency,
    group_by=("stack",),
    metrics=("p50", "p95", "p99", "throughput"),
    flags=("served",),
    cost=0.6,
    # heavy-tail is left out only to keep the performance ruler's
    # report_campaign cell list fixed, as for EXP-8: its delays are bounded
    # (at most 12x the base) and strand no learner. Turning it on is a
    # change to that cell list.
    axes=(Axis("env", ("baseline", "uniform", "flaky")),),
)
def exp_workload_latency(
    *, seed: int = 0, env: str = "baseline"
) -> list[dict]:
    """EXP-11: one client population, four consistency price points."""
    # mean_gap and the clients' retry patience are sized so the slowest stack
    # (Paxos) still serves every operation at every seed: premature failover
    # retries feed fresh consensus instances back into the queue, so an
    # impatient client can push the tail past its own retry budget.
    spec = WorkloadSpec(
        clients=4, ops_per_client=24, mean_gap=24, keys=64, seed=seed
    )
    rows: list[dict] = []
    for stack in STACKS:
        # Omega is pinned from tick 0, so the 3 replicas must deliver strong TOB.
        monitors = () if stack == "direct" else (EtobMonitor(range(3)),)
        sim, observer, horizon = workload_sim(
            spec, stack=stack, replicas=3, env=env, record="metrics",
            retry_after=300, observers=monitors,
        )
        sim.run_until(horizon)
        for report in (monitor.report() for monitor in monitors):
            if not report.is_strong_tob():
                raise AssertionError(f"{stack} broke strong TOB: {report}")
        summary = observer.summary()
        rows.append(
            {
                "stack": stack,
                "p50": summary.p50,
                "p95": summary.p95,
                "p99": summary.p99,
                "throughput": summary.throughput,
                "retries": summary.retries,
                "served": summary.served,
            }
        )
    return rows
