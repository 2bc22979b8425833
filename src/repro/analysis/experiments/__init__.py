"""Scenario runners for the reproduction experiments (EXP-1 .. EXP-11).

Formerly a single 841-line module, the experiments now live in small modules
that register themselves with the registry in
:mod:`repro.analysis.experiments.base`:

- :mod:`~repro.analysis.experiments.latency` — EXP-1, EXP-10b
- :mod:`~repro.analysis.experiments.equivalence` — EXP-2
- :mod:`~repro.analysis.experiments.environments` — EXP-3, EXP-8
- :mod:`~repro.analysis.experiments.stabilization` — EXP-4, EXP-5
- :mod:`~repro.analysis.experiments.causal` — EXP-6, EXP-10a
- :mod:`~repro.analysis.experiments.cht` — EXP-7
- :mod:`~repro.analysis.experiments.eic` — EXP-9
- :mod:`~repro.analysis.experiments.heartbeat` — EXP-10c
- :mod:`~repro.analysis.experiments.workload` — EXP-11

Each ``exp_*`` function runs the simulations for one experiment of
EXPERIMENTS.md and returns its rows: a ``list[dict]``, one dict per
scenario, whose columns its :class:`ReportSpec` names. Every
:class:`ExperimentDef` expands into picklable, provenance-tagged cells
(``cells(seeds)``) that a :class:`Campaign` pools across *all* experiments
onto one shared worker pool. The signature decides the expansion: a
function that takes a ``seed`` keyword (EXP-3, EXP-4, EXP-6, EXP-8,
EXP-10a, EXP-10c, EXP-11) runs once per seed, because its seed reaches
link delays or a client population; one that takes none (EXP-1, EXP-2,
EXP-5, EXP-7, EXP-9, EXP-10b) is deterministic and runs once. Each
experiment also declares its claim (``claim=``, named verdicts over one
cell's rows), which ``benchmarks/generate_report.py`` checks on every
cell; ``EXPERIMENTS.md`` quotes the tables :func:`aggregate_sweep` folds
from their rows. The functions are deterministic for fixed seeds.
"""

from __future__ import annotations

from repro.analysis.experiments.base import (
    EXPERIMENT_REGISTRY,
    ExperimentDef,
    ReportSpec,
    aggregate_sweep,
    claim_verdicts,
    experiment,
    run_experiment,
    sweep_rows,
)
from repro.analysis.experiments.campaign import Campaign, CampaignResult
from repro.suite import Axis, Cell

# Importing the experiment modules populates EXPERIMENT_REGISTRY.
from repro.analysis.experiments.latency import (
    exp_ablation_promote_period,
    exp_comm_steps,
)
from repro.analysis.experiments.equivalence import exp_equivalence
from repro.analysis.experiments.environments import (
    exp_ec_any_environment,
    exp_partition_gap,
)
from repro.analysis.experiments.stabilization import (
    exp_etob_stabilization,
    exp_tob_mode,
)
from repro.analysis.experiments.causal import exp_ablation_churn, exp_causal
from repro.analysis.experiments.cht import exp_cht_extraction
from repro.analysis.experiments.eic import exp_eic
from repro.analysis.experiments.heartbeat import exp_ablation_heartbeat_gst
from repro.analysis.experiments.workload import exp_workload_latency

#: registry used by the report generator and the performance ruler, in
#: EXP-number order (kept as a plain name → callable map for compatibility).
ALL_EXPERIMENTS = {
    key: EXPERIMENT_REGISTRY[key].fn
    for key in (
        "EXP-1",
        "EXP-2",
        "EXP-3",
        "EXP-4",
        "EXP-5",
        "EXP-6",
        "EXP-7",
        "EXP-8",
        "EXP-9",
        "EXP-10a",
        "EXP-10b",
        "EXP-10c",
        "EXP-11",
    )
}

__all__ = [
    "ALL_EXPERIMENTS",
    "Axis",
    "Campaign",
    "CampaignResult",
    "Cell",
    "EXPERIMENT_REGISTRY",
    "ExperimentDef",
    "ReportSpec",
    "aggregate_sweep",
    "claim_verdicts",
    "experiment",
    "run_experiment",
    "sweep_rows",
    "exp_ablation_churn",
    "exp_ablation_heartbeat_gst",
    "exp_ablation_promote_period",
    "exp_causal",
    "exp_cht_extraction",
    "exp_comm_steps",
    "exp_ec_any_environment",
    "exp_eic",
    "exp_equivalence",
    "exp_etob_stabilization",
    "exp_partition_gap",
    "exp_tob_mode",
    "exp_workload_latency",
]
