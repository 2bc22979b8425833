"""The falsifier driver: guided perturbation over an adversary envelope.

A deterministic hill-climb with restart annealing, batched onto the existing
:class:`~repro.suite.ScenarioSuite` worker-pool machinery:

- each *round* proposes a batch of candidate points — neighbors of the
  current point (plus one random immigrant), or fresh uniform draws on the
  first round and after a restart;
- the batch is evaluated as cost-tagged suite cells (one trial per cell, the
  target's declared cost), so trials run across ``workers`` processes and
  stream back in completion order while results are reassembled by index —
  worker count and backend can never change what the search sees;
- the round's best candidate is accepted if it improves the current value,
  or with annealing probability ``exp((candidate - current) / T)`` under a
  geometrically cooling temperature; after ``restart_after`` rounds without
  a new global best the climb restarts from fresh uniform draws (keeping the
  global best, which is what the witness records).

Every random choice — proposal, acceptance, restart exploration — is
counter-based in ``(seed, round, slot)`` via
:func:`~repro.sim.types.stable_hash`, and every trial is pure in its point,
so the whole search trajectory is a pure function of
``(target, budget, seed, batch, restart_after, t0, decay)``.
``tests/test_falsify.py`` pins worker-count and backend independence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.search.envelope import point_key
from repro.search.targets import get_target
from repro.search.witness import Witness, _replay_cell
from repro.sim.errors import ConfigurationError
from repro.sim.kernel import DEFAULT_KERNEL
from repro.sim.types import stable_hash

__all__ = ["FalsifierResult", "falsify"]


@dataclass
class FalsifierResult:
    """Outcome of one falsification search."""

    target: str
    witness: Witness
    evaluations: int
    rounds: int
    #: (evaluations consumed, best value so far) after each round.
    history: list[tuple[int, float]] = field(default_factory=list)


def _unit(*parts) -> float:
    """A float in [0, 1), pure in ``parts``."""
    return (stable_hash("falsify-unit", *parts) % (1 << 53)) / float(1 << 53)


def falsify(
    target_name: str,
    *,
    budget: int = 200,
    seed: int = 0,
    batch: int = 8,
    workers: int = 0,
    backend: str = "stream",
    kernel: str = DEFAULT_KERNEL,
    restart_after: int = 5,
    t0: float = 16.0,
    decay: float = 0.8,
    progress: Callable[[int, int, float], None] | None = None,
) -> FalsifierResult:
    """Search the target's envelope for the worst admissible point.

    ``budget`` bounds the number of trials (objective evaluations); the
    returned witness pins the best point found, its objective value, and
    its run digest (baseline attachment is the caller's job — see
    :func:`repro.search.targets.iid_baseline`). ``progress``, when given,
    is invoked after each round as ``progress(evaluations, budget,
    best_value)``.
    """
    from repro.suite import Cell, ScenarioSuite

    target = get_target(target_name)
    if budget < 1:
        raise ConfigurationError(f"budget must be >= 1, got {budget}")
    if batch < 1:
        raise ConfigurationError(f"batch must be >= 1, got {batch}")
    envelope = target.envelope

    current_point: dict | None = None
    current_value = -math.inf
    best_point: dict | None = None
    best_value = -math.inf
    best_digest = 0
    no_improve = 0
    evaluations = 0
    rounds = 0
    history: list[tuple[int, float]] = []

    while evaluations < budget:
        r = rounds
        k = min(batch, budget - evaluations)
        if current_point is None:
            candidates = [
                envelope.random_point(stable_hash("falsify-explore", seed, r, i))
                for i in range(k)
            ]
        else:
            candidates = [
                envelope.neighbor(
                    current_point, stable_hash("falsify-neighbor", seed, r, i)
                )
                for i in range(max(1, k - 1))
            ]
            if k > 1:  # one random immigrant keeps the climb ergodic
                candidates.append(
                    envelope.random_point(stable_hash("falsify-immigrant", seed, r))
                )

        cells = [
            Cell(
                runner=_replay_cell,
                params={"target": target.name, "point": point, "kernel": kernel},
                tags={"target": target.name, "round": r, "slot": i},
                cost=target.cost,
            )
            for i, point in enumerate(candidates)
        ]
        outcome = ScenarioSuite.from_cells(cells, name=f"falsify-{target.name}") \
            .run(workers=workers, backend=backend)
        for cell in outcome.cells:
            if not cell.ok:
                raise ConfigurationError(
                    f"falsifier trial failed ({target.name}, round {r}): "
                    f"{cell.error}"
                )
        values = [cell.value for cell in outcome.cells]  # (value, digest) pairs
        evaluations += len(candidates)
        rounds += 1

        # Round best: highest value, lowest slot on ties (determinism).
        cand_i = max(range(len(values)), key=lambda i: (values[i][0], -i))
        cand_point = candidates[cand_i]
        cand_value, cand_digest = values[cand_i]

        if cand_value > best_value:
            best_point, best_value, best_digest = cand_point, cand_value, cand_digest
            no_improve = 0
        else:
            no_improve += 1

        if current_point is None or cand_value >= current_value:
            current_point, current_value = cand_point, cand_value
        else:
            temperature = max(t0 * decay**r, 1e-9)
            if _unit(seed, r) < math.exp((cand_value - current_value) / temperature):
                current_point, current_value = cand_point, cand_value

        if no_improve >= restart_after:
            current_point, current_value = None, -math.inf
            no_improve = 0

        history.append((evaluations, best_value))
        if progress is not None:
            progress(evaluations, budget, best_value)

    witness = Witness(
        target=target.name,
        experiment=target.experiment,
        objective=target.objective,
        value=best_value,
        digest=best_digest,
        point=best_point,
        axes=dict(target.axes),
        provenance={
            "budget": budget,
            "seed": seed,
            "batch": batch,
            "restart_after": restart_after,
            "t0": t0,
            "decay": decay,
            "rounds": rounds,
            "point_key": repr(point_key(best_point)),
        },
    )
    return FalsifierResult(
        target=target.name,
        witness=witness,
        evaluations=evaluations,
        rounds=rounds,
        history=history,
    )
