"""The paper's contributions: EC, ETOB, EIC and their transformations.

- :mod:`repro.core.ec` — eventual consensus from Omega (Algorithm 4);
- :mod:`repro.core.etob` — eventual total order broadcast from Omega
  (Algorithm 5), with two-step delivery and causal order;
- :mod:`repro.core.eic` — eventual irrevocable consensus (Appendix A);
- :mod:`repro.core.transformations` — Algorithms 1, 2, 6 and 7;
- :mod:`repro.core.causal_graph` — the causal dependency graph ``CG`` with
  ``UpdateCG`` / ``UnionCG`` / ``UpdatePromote``;
- :mod:`repro.core.drivers` — application drivers that exercise the
  abstractions according to their usage contracts.
"""

from repro.core.causal_graph import CausalGraph, LinearizationError
from repro.core.drivers import EcDriverLayer, EicDriverLayer
from repro.core.ec import EcUsingOmegaLayer
from repro.core.eic import EicUsingOmegaLayer
from repro.core.etob import EtobLayer
from repro.core.messages import AppMessage, MessageId

__all__ = [
    "AppMessage",
    "CausalGraph",
    "EcDriverLayer",
    "EcUsingOmegaLayer",
    "EicDriverLayer",
    "EicUsingOmegaLayer",
    "EtobLayer",
    "LinearizationError",
    "MessageId",
]
