"""Analysis: latency metrics, convergence measures, tables, experiments.

- :mod:`repro.analysis.metrics` — delivery latency in ticks and in
  communication steps, convergence/divergence measures, message counts;
- :mod:`repro.analysis.tables` — fixed-width ASCII tables for the
  experiment reports;
- :mod:`repro.analysis.experiments` — the scenario runners and claims
  behind every experiment in EXPERIMENTS.md (used by the report generator
  and the performance ruler).
"""

from repro.analysis.metrics import (
    LatencyReport,
    MessageLatency,
    divergence_windows,
    latency_report,
    message_counts,
)
from repro.analysis.tables import Table

__all__ = [
    "LatencyReport",
    "MessageLatency",
    "Table",
    "divergence_windows",
    "latency_report",
    "message_counts",
]
