"""Falsification targets: named adversary envelopes over real experiments.

A :class:`FalsifyTarget` binds together everything one search needs:

- the :class:`~repro.search.envelope.Envelope` of admissible adversary
  choices (scheduler permutation keys, env-model parameters, crash
  patterns);
- a ``build(point)`` function mapping a point to the
  :class:`~repro.sim.replay.RunSpec` it denotes — derived from the
  experiment's own spec of that scenario, so a point is also a replay
  recipe, and an edit to the experiment moves the target with it;
- the objective (:mod:`repro.search.objectives`) the falsifier maximizes;
- a ``baseline_run(seed)`` function measuring the same objective on the
  *canonical i.i.d. scenario* of the underlying experiment — the thing the
  report's mean ± spread tables sample — so a witness can record exactly
  which i.i.d. 3-seed maximum it beats.

Targets are looked up **by name** from this module-level registry: suite
cells and witnesses carry only the string, so search trials are picklable
and replay identically in worker processes that import this module cold.

Built-in targets:

- ``exp4-tau`` — EXP-4's ETOB stabilization scenario (n=4, tau_Omega=100)
  under eventually-stable links, with the adversary choosing the random
  scheduler's permutation key, the env seed, the pre-stabilization jitter,
  and the per-pair stabilization times. Objective: discovered ETOB tau.
- ``exp8-tau`` — EXP-8's partition scenario (n=5, majority crash allowed:
  the Sigma-gap experiment explicitly does *not* assume a correct
  majority), adversary choosing the permutation key, env seed, link jitter,
  and the crash pattern over processes 0-2. Objective: discovered ETOB tau
  of the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.search.envelope import Envelope, IntParam, normalize_point
from repro.search.objectives import evaluate_objective
from repro.sim import (
    EventuallyStableLinks,
    RunSpec,
    UniformDist,
    run_digest,
    run_plan,
)
from repro.sim.errors import ConfigurationError
from repro.sim.kernel import DEFAULT_KERNEL

__all__ = [
    "TARGETS",
    "FalsifyTarget",
    "evaluate",
    "get_target",
    "iid_baseline",
    "rebuild_simulation",
    "register_target",
    "registered_targets",
]


@dataclass(frozen=True)
class FalsifyTarget:
    """One named falsification target (see the module docstring)."""

    name: str
    experiment: str
    description: str
    objective: str
    envelope: Envelope
    #: the fixed scenario identity a witness carries beside its point.
    axes: dict = field(default_factory=dict)
    #: point -> the RunSpec it denotes (None for sim-free targets).
    build: Callable[[dict], RunSpec] | None = None
    #: seed -> objective value on the canonical i.i.d. scenario.
    baseline_run: Callable[[int], float] | None = None
    #: point -> (value, digest) override for sim-free targets.
    evaluate_point: Callable[[dict], tuple[float, int]] | None = None
    #: relative wall-time hint per trial (suite cell cost).
    cost: float = 1.0


#: name -> target, in registration order.
TARGETS: dict[str, FalsifyTarget] = {}


def register_target(target: FalsifyTarget) -> FalsifyTarget:
    if target.name in TARGETS:
        raise ConfigurationError(f"target {target.name!r} already registered")
    if (target.build is None) == (target.evaluate_point is None):
        raise ConfigurationError(
            f"target {target.name!r} needs exactly one of build/evaluate_point"
        )
    TARGETS[target.name] = target
    return target


def registered_targets() -> list[str]:
    """All registered target names, in registration order."""
    return list(TARGETS)


def _slug(name: str) -> str:
    return "".join(ch for ch in name.casefold() if ch.isalnum())


def get_target(name: str) -> FalsifyTarget:
    """The target called ``name`` — or, as a convenience, the unique target
    whose *experiment* matches (``"exp4"`` resolves to ``exp4-tau``)."""
    if name in TARGETS:
        return TARGETS[name]
    wanted = _slug(name)
    matches = [
        t
        for t in TARGETS.values()
        if _slug(t.experiment) == wanted or _slug(t.name) == wanted
    ]
    if len(matches) == 1:
        return matches[0]
    raise ConfigurationError(
        f"unknown target {name!r}; registered: {registered_targets()}"
    )


def evaluate(name: str, point: dict, *, kernel: str = DEFAULT_KERNEL) -> tuple[float, int]:
    """Run one trial: the target's objective value plus the run digest.

    Pure in ``(name, point)`` — and independent of ``kernel`` (the kernels
    are byte-identical; the digest is the cross-kernel equality check the
    witness corpus pins).
    """
    target = get_target(name)
    point = normalize_point(point)
    target.envelope.validate(point)
    if target.evaluate_point is not None:
        return target.evaluate_point(point)
    sim = run_plan(replace(target.build(point), kernel=kernel))
    return evaluate_objective(target.objective, sim), run_digest(sim)


def rebuild_simulation(
    experiment: str, axes: dict, keys: dict, *, kernel: str = DEFAULT_KERNEL
):
    """Rebuild (and run) the exact simulation behind ``(experiment, keys)``.

    The entry point :func:`repro.sim.replay.replay_simulation` delegates to;
    ``keys`` is the witness's search point. ``axes``, when non-empty, must
    agree with the target's declared scenario identity — a witness replayed
    against a target whose scenario drifted must fail loudly, not
    reconstruct a different run.
    """
    target = get_target(experiment)
    if target.build is None:
        raise ConfigurationError(
            f"target {target.name!r} has no simulation to rebuild"
        )
    for key, value in (axes or {}).items():
        declared = target.axes.get(key, value)
        if declared != value:
            raise ConfigurationError(
                f"witness axis {key}={value!r} does not match target "
                f"{target.name!r} ({key}={declared!r})"
            )
    point = normalize_point(keys)
    target.envelope.validate(point)
    return run_plan(replace(target.build(point), kernel=kernel))


def iid_baseline(
    name: str, *, seeds: int = 3, base_seed: int = 0
) -> dict[str, Any]:
    """The i.i.d. baseline the falsifier must beat: the target's objective
    measured on the canonical experiment scenario over the report's
    deterministic seeds (:func:`~repro.suite.seed_values`, the same
    derivation ``generate_report`` uses — for ``seeds=3`` these are exactly
    the EXPERIMENTS.md seeds, so ``max`` is the documented 3-seed maximum).
    """
    from repro.suite import seed_values

    target = get_target(name)
    if target.baseline_run is None:
        raise ConfigurationError(f"target {name!r} declares no i.i.d. baseline")
    values = [
        float(target.baseline_run(seed)) for seed in seed_values(seeds, base_seed)
    ]
    return {"seeds": seeds, "base_seed": base_seed, "values": values,
            "max": max(values)}


# ---------------------------------------------------------------------------
# built-in targets
# ---------------------------------------------------------------------------

#: EXP-4's cell the exp4-tau target searches, and the target's scheduling.
_EXP4_AXES = {
    "n": 4,
    "tau_omega": 100,
    "env_family": "late-links",
    "scheduling": "random",
}


def _exp4_spec(seed: int) -> RunSpec:
    """EXP-4's tau_Omega=100 cell at n=4 under late-links."""
    from repro.analysis.experiments.stabilization import etob_stabilization_spec

    axes = _EXP4_AXES
    return etob_stabilization_spec(
        axes["tau_omega"], n=axes["n"], seed=seed, env=axes["env_family"]
    )


def _build_exp4(point: dict) -> RunSpec:
    env_seed = point["env_seed"]
    s01, s12 = point["stable_01"], point["stable_12"]
    return replace(
        _exp4_spec(point["sched_seed"]),
        crashes=point["crashes"],
        scheduling=_EXP4_AXES["scheduling"],
        links=EventuallyStableLinks(
            UniformDist(1, point["jitter_hi"], seed=env_seed),
            post_delay=3,
            stable_at=(((0, 1), s01), ((1, 0), s01), ((1, 2), s12), ((2, 1), s12)),
            seed=env_seed,
        ),
    )


def _etob_tau(spec: RunSpec) -> float:
    from repro.properties import check_etob

    return check_etob(run_plan(spec).run).tau


register_target(FalsifyTarget(
    name="exp4-tau",
    experiment="EXP-4",
    description=(
        "ETOB stabilization (n=4, tau_Omega=100) under eventually-stable "
        "links; adversary picks scheduler keys, env seed, jitter, and the "
        "per-pair stabilization times"
    ),
    objective="etob_tau",
    envelope=Envelope(
        n=4,
        params=(
            IntParam("sched_seed", 0, (1 << 31) - 1, kind="key"),
            IntParam("env_seed", 0, (1 << 31) - 1, kind="key"),
            IntParam("jitter_hi", 1, 18),
            IntParam("stable_01", 0, 220),
            IntParam("stable_12", 0, 220),
        ),
    ),
    axes=_EXP4_AXES,
    build=_build_exp4,
    baseline_run=lambda seed: _etob_tau(_exp4_spec(seed)),
    cost=0.05,
))


#: EXP-8's cell and the target's scheduling; ``partition_gap_spec`` fixes n
#: and tau_Omega itself, and ``tests/test_run_spec.py`` checks they agree.
_EXP8_AXES = {
    "n": 5,
    "tau_omega": 150,
    "env_family": "uniform",
    "scheduling": "random",
}


def _exp8_spec(seed: int) -> RunSpec:
    """EXP-8's Omega-only ETOB availability case under uniform links."""
    from repro.analysis.experiments.environments import partition_gap_spec

    return partition_gap_spec("etob", seed=seed, env=_EXP8_AXES["env_family"])


def _build_exp8(point: dict) -> RunSpec:
    # The adversary also times the survivors' inputs (input schedules are
    # adversary-controlled in the paper's model): each survivor emits a
    # three-message burst, and bursts landing while Omega is still rotating
    # force non-prefix snapshot adoptions — which is what pushes the
    # discovered tau late. A single message per survivor almost never
    # conflicts; the burst is what makes the objective climbable.
    broadcasts = [(0, 10, "pre-crash")]
    broadcasts += [
        (3, point["bcast_1"] + 15 * i, f"survivor-3.{i}") for i in range(3)
    ]
    broadcasts += [
        (4, point["bcast_2"] + 15 * i, f"survivor-4.{i}") for i in range(3)
    ]
    return replace(
        _exp8_spec(point["sched_seed"]),
        crashes=point["crashes"],
        inputs=tuple((p, t, ("broadcast", m)) for p, t, m in broadcasts),
        scheduling=_EXP8_AXES["scheduling"],
        links=UniformDist(1, point["delay_hi"], seed=point["env_seed"]),
    )


register_target(FalsifyTarget(
    name="exp8-tau",
    experiment="EXP-8",
    description=(
        "the Sigma-gap partition scenario (n=5, tau_Omega=150): Omega-only "
        "ETOB must stay available with a crashed majority; adversary picks "
        "scheduler keys, env seed, link jitter, the crash pattern over "
        "processes 0-2, and when survivors 3 and 4 broadcast"
    ),
    objective="etob_tau",
    envelope=Envelope(
        n=5,
        params=(
            IntParam("sched_seed", 0, (1 << 31) - 1, kind="key"),
            IntParam("env_seed", 0, (1 << 31) - 1, kind="key"),
            IntParam("delay_hi", 1, 12),
            # Survivor broadcast times: the paper's adversary controls the
            # input schedule too, and inputs landing while Omega is still
            # unstable are what force late snapshot adoptions.
            IntParam("bcast_1", 20, 600),
            IntParam("bcast_2", 20, 600),
        ),
        # The experiment's whole point is losing the majority, so the
        # envelope does NOT set majority=True: up to all three of the
        # non-survivor processes may crash, any time in the window.
        crash_candidates=(0, 1, 2),
        crash_window=(20, 400),
        max_crashes=3,
    ),
    axes=_EXP8_AXES,
    build=_build_exp8,
    baseline_run=lambda seed: _etob_tau(_exp8_spec(seed)),
    cost=0.12,
))
