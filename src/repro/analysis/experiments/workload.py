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
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult, experiment
from repro.analysis.tables import Table
from repro.suite import Axis
from repro.workload import STACKS, WorkloadSpec, workload_sim


@experiment(
    "EXP-11",
    "the latency price of consistency (open-loop workload)",
    group_by=("stack",),
    metrics=("p50", "p95", "p99", "throughput"),
    flags=("served",),
    cost=0.6,
    # heavy-tail is deliberately absent for the same reason as EXP-8: its
    # extreme reordering can strand a consensus learner, which is a protocol
    # limitation orthogonal to the latency comparison measured here.
    axes=(Axis("env", ("baseline", "uniform", "flaky")),),
)
def exp_workload_latency(
    *, seed: int = 0, env: str = "baseline"
) -> ExperimentResult:
    """EXP-11: one client population, four consistency price points."""
    # mean_gap and the clients' retry patience are sized so the slowest stack
    # (Paxos) still serves every operation at every seed: premature failover
    # retries feed fresh consensus instances back into the queue, so an
    # impatient client can push the tail past its own retry budget.
    spec = WorkloadSpec(
        clients=4, ops_per_client=24, mean_gap=24, keys=64, seed=seed
    )
    table = Table(
        f"EXP-11: open-loop workload latency/throughput "
        f"({spec.total_ops} ops, {spec.clients} clients), env={env}",
        ["stack", "p50", "p95", "p99", "ops/kilotick", "retries", "served"],
    )
    rows: list[dict] = []
    for stack in STACKS:
        sim, observer, horizon = workload_sim(
            spec, stack=stack, env=env, record="metrics", retry_after=300
        )
        sim.run_until(horizon)
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
        table.add_row(
            stack,
            summary.p50,
            summary.p95,
            summary.p99,
            summary.throughput,
            summary.retries,
            summary.served,
        )
    return ExperimentResult("workload-latency", table, rows)
