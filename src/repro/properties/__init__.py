"""Executable versions of the paper's specifications.

Each property of Section 3 (and Appendix A) that is a statement about a
run's output history is implemented once, as a monitor: an
:class:`~repro.sim.observers.OutputMonitor` that folds the outputs as they
happen, keeping each process's current state and per-message state, never
the history. Attached through ``observers=`` it checks a run live, at any
recording level and on any loop; ``report()`` gives the verdict. Each
``check_*`` function replays a retained run through the same monitor:

- :mod:`repro.properties.etob_checker` — :class:`EtobMonitor`:
  TOB-Validity/No-creation/No-duplication/Agreement plus ETOB-Stability and
  ETOB-Total-order with the *discovered* stabilization time tau;
- :mod:`repro.properties.tob_checker` — strong TOB (tau = 0 everywhere);
- :mod:`repro.properties.causal_checker` — :class:`CausalMonitor`:
  TOB-Causal-Order;
- :mod:`repro.properties.ec_checker` — :class:`EcMonitor`: EC with the
  discovered agreement index k;
- :mod:`repro.properties.eic_checker` — :class:`EicMonitor`: EIC.

Post-hoc only: :mod:`~repro.properties.detector_checker` (is a sampled
history really an Omega or Sigma history?).

Tests and benchmarks assert through these checkers rather than ad-hoc
conditions, so the specifications are written down exactly once.
"""

from repro.properties.causal_checker import CausalMonitor, check_causal_order
from repro.properties.delivery import DeliveryTimeline, extract_timeline
from repro.properties.detector_checker import check_omega_history, check_sigma_history
from repro.properties.ec_checker import EcMonitor, EcReport, check_ec
from repro.properties.eic_checker import EicMonitor, EicReport, check_eic
from repro.properties.etob_checker import EtobMonitor, EtobReport, check_etob
from repro.properties.tob_checker import check_tob

__all__ = [
    "CausalMonitor",
    "DeliveryTimeline",
    "EcMonitor",
    "EcReport",
    "EicMonitor",
    "EicReport",
    "EtobMonitor",
    "EtobReport",
    "check_causal_order",
    "check_ec",
    "check_eic",
    "check_etob",
    "check_omega_history",
    "check_sigma_history",
    "check_tob",
    "extract_timeline",
]
