"""Adversarial schedule falsification (``repro.search``).

The experiment pipeline samples schedules i.i.d. from counter-based seeds;
this package *searches* for the schedules that hurt — guided perturbation
(hill-climb + restart annealing) over the random scheduler's permutation
keys, environment-model parameters, and crash patterns, maximizing
objectives like the ETOB stabilization time.
Because every run is pure in its keys, any worst case found is a replayable
:class:`~repro.search.witness.Witness`: the corpus under
``tests/witnesses/`` pins each one as a permanent regression test, replayed
byte-identically across kernels and suite worker counts.

The layers:

- :mod:`repro.search.envelope` — the declared adversary region
  (:class:`Envelope` / :class:`IntParam`) and counter-based point
  perturbation;
- :mod:`repro.search.objectives` — named ``sim -> number`` objectives;
- :mod:`repro.search.targets` — named search targets binding an envelope to
  a real experiment scenario, a replay builder, and its canonical i.i.d.
  baseline;
- :mod:`repro.search.falsify` — the batched, suite-dispatched search driver;
- :mod:`repro.search.witness` — the serializable witness format,
  :func:`replay_witness`, and corpus IO.

CLI: ``python -m repro.search --target exp4-tau --budget 200``.
"""

from repro.search.envelope import Envelope, IntParam, normalize_point, point_key
from repro.search.falsify import FalsifierResult, falsify
from repro.search.objectives import OBJECTIVES, evaluate_objective, register_objective
from repro.search.targets import (
    TARGETS,
    FalsifyTarget,
    evaluate,
    get_target,
    iid_baseline,
    rebuild_simulation,
    register_target,
    registered_targets,
)
from repro.search.witness import (
    WITNESS_SCHEMA,
    Witness,
    default_corpus_dir,
    load_corpus,
    replay_witness,
    save_witness,
)

__all__ = [
    "Envelope",
    "FalsifierResult",
    "FalsifyTarget",
    "IntParam",
    "OBJECTIVES",
    "TARGETS",
    "WITNESS_SCHEMA",
    "Witness",
    "default_corpus_dir",
    "evaluate",
    "evaluate_objective",
    "falsify",
    "get_target",
    "iid_baseline",
    "load_corpus",
    "normalize_point",
    "point_key",
    "rebuild_simulation",
    "register_objective",
    "register_target",
    "registered_targets",
    "replay_witness",
    "save_witness",
]
