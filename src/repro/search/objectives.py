"""Falsification objectives: what "worse" means, per target.

An objective maps a *finished* :class:`~repro.sim.scheduler.Simulation` to a
single number the falsifier maximizes. The built-in one reads the output
histories, never the retained step list, so search trials run at
``record="outputs"`` fidelity.

Registered objectives:

- ``etob_tau`` — the discovered ETOB stabilization time
  (:func:`~repro.properties.check_etob`; the larger, the closer the run is
  to falsifying the paper's Lemma 3 bound).

A target may register its own (``register_objective``).
"""

from __future__ import annotations

from typing import Callable

from repro.sim.errors import ConfigurationError

__all__ = ["OBJECTIVES", "evaluate_objective", "register_objective"]

#: name -> objective(sim) -> number; populated below and by targets.
OBJECTIVES: dict[str, Callable] = {}


def register_objective(name: str) -> Callable:
    """Register ``fn(sim) -> number`` as objective ``name``."""

    def decorate(fn: Callable) -> Callable:
        if name in OBJECTIVES:
            raise ConfigurationError(f"objective {name!r} already registered")
        OBJECTIVES[name] = fn
        return fn

    return decorate


def evaluate_objective(name: str, sim) -> float:
    """Apply the named objective to a finished simulation."""
    try:
        fn = OBJECTIVES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown objective {name!r}; registered: {sorted(OBJECTIVES)}"
        ) from None
    return fn(sim)


@register_objective("etob_tau")
def _etob_tau(sim) -> float:
    from repro.properties import check_etob

    return check_etob(sim.run).tau
