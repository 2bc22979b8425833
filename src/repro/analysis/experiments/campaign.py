"""Campaigns: one cross-experiment cell pool, demultiplexed per experiment.

The report's throughput problem is above the simulator: sweeping experiments
one grid at a time leaves workers idle through each experiment's tail
(EXP-7's cell runs for a second while the pool holding it has nothing else
to hand out). A :class:`Campaign` flattens the cells of *all* requested
experiments (seeds × extra axes, or extra axes alone for a deterministic
experiment) into one global list of :class:`~repro.suite.Cell` objects,
orders it cost-descending (per-experiment cost hints, so the long tails
start first and overlap the cheap cells), executes it through a
**single** :func:`~repro.suite.run_cells` call — one worker pool for the
whole report — and demultiplexes the results back into one
:class:`~repro.suite.SuiteResult` per experiment via the provenance tags
each cell carries::

    from repro.analysis.experiments import Campaign, aggregate_sweep

    outcome = (
        Campaign(["EXP-4", "EXP-7"], seeds=3)
        .extend("EXP-4", n=[4, 5])          # extra axis, beyond seed
        .run(workers=4)
    )
    table, agg = aggregate_sweep("EXP-4", outcome.experiment("EXP-4"), pivot="n")

Determinism: cell parameters (seeds included) are fixed at expansion time,
and demultiplexing reassembles each experiment's cells by their canonical
``cell`` tag — so results are byte-identical across worker counts and
completion orders; the cost ordering only moves wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro.analysis.experiments.base import (
    EXPERIMENT_REGISTRY,
    ExperimentDef,
)
from repro.sim.errors import ConfigurationError
from repro.suite import Cell, CellResult, SuiteResult, run_cells


@dataclass
class CampaignResult:
    """Outcome of one campaign run: the pooled result plus per-experiment views.

    ``suite`` is the raw pooled :class:`~repro.suite.SuiteResult` (cells in
    execution order — cost-descending); ``by_experiment`` maps
    each experiment key to a demultiplexed ``SuiteResult`` whose cells are
    re-indexed into the experiment's canonical grid order (its
    ``wall_time`` is the summed *cell* cost — the cells shared one pool, so
    per-experiment wall clock does not exist).
    """

    suite: SuiteResult
    by_experiment: dict[str, SuiteResult] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.suite.ok

    @property
    def wall_time(self) -> float:
        return self.suite.wall_time

    @property
    def workers(self) -> int:
        return self.suite.workers

    def failures(self) -> list[CellResult]:
        return self.suite.failures()

    def experiment(self, key: str) -> SuiteResult:
        """The demultiplexed sweep result of one experiment."""
        try:
            return self.by_experiment[key]
        except KeyError:
            raise KeyError(
                f"experiment {key!r} was not part of this campaign; "
                f"ran: {sorted(self.by_experiment)}"
            ) from None


class Campaign:
    """A declarative job: experiments × seeds × axes on one shared cell pool."""

    def __init__(
        self,
        keys: Sequence[str] | None = None,
        *,
        seeds: int | Sequence[int] = 3,
        base_seed: int = 0,
        name: str = "campaign",
    ) -> None:
        if keys is None:
            keys = list(EXPERIMENT_REGISTRY)
        self.keys = list(keys)
        if not self.keys:
            raise ConfigurationError("a campaign needs at least one experiment")
        seen: set[str] = set()
        for key in self.keys:
            if key not in EXPERIMENT_REGISTRY:
                raise ConfigurationError(
                    f"unknown experiment {key!r}; known: {sorted(EXPERIMENT_REGISTRY)}"
                )
            if key in seen:
                raise ConfigurationError(f"experiment {key!r} listed twice")
            seen.add(key)
        self.seeds = seeds
        self.base_seed = base_seed
        self.name = name
        self._axes: dict[str, dict[str, Sequence[Any]]] = {}

    def definition(self, key: str) -> ExperimentDef:
        return EXPERIMENT_REGISTRY[key]

    def extend(self, key: str, *names: str, **axes: Sequence[Any]) -> "Campaign":
        """Sweep extra axes for one experiment, beyond the implicit ``seed``.

        Positional ``names`` pull axes the experiment *declares* (using the
        declared recommended values); keyword ``name=values`` sweeps any
        keyword of the experiment function with explicit values. Either way
        the axis multiplies that experiment's cell count.
        """
        if key not in self.keys:
            raise ConfigurationError(
                f"experiment {key!r} is not part of this campaign ({self.keys})"
            )
        definition = self.definition(key)
        per_key = self._axes.setdefault(key, {})
        for name in names:
            axis = definition.declared_axis(name)
            if axis.name in per_key or axis.name in axes:
                raise ConfigurationError(
                    f"axis {axis.name!r} given twice for experiment {key!r}"
                )
            per_key[axis.name] = axis.values
        for name, values in axes.items():
            if name in per_key:
                raise ConfigurationError(
                    f"axis {name!r} given twice for experiment {key!r}"
                )
            per_key[name] = list(values)
        return self

    def cells(self) -> list[Cell]:
        """The flattened pool in canonical order: experiments, then grids.

        Canonical order is the campaign's experiment order, each experiment
        expanded seed-major, or over its extra axes alone when it is
        deterministic (see :meth:`ExperimentDef.cells`); execution
        order is chosen separately by :meth:`run`.
        """
        pool: list[Cell] = []
        for key in self.keys:
            pool.extend(
                self.definition(key).cells(
                    self.seeds,
                    base_seed=self.base_seed,
                    axes=self._axes.get(key),
                )
            )
        return pool

    def run(
        self,
        *,
        workers: int | None = None,
        progress: Callable[[CellResult, int, int], None] | None = None,
        cache: Any | None = None,
    ) -> CampaignResult:
        """Execute every cell of every experiment through one worker pool.

        The pool is sorted cost-descending (stable, so canonical order
        breaks ties) — the expensive tails (EXP-7) are dispatched first and
        overlap the cheap cells instead of running after them. Ordering and
        worker count never change the *results*: demultiplexing reassembles
        each experiment's cells by their canonical ``cell`` tag.
        ``workers`` / ``progress`` pass through to
        :func:`~repro.suite.run_cells`; with the default
        :class:`~repro.suite.SuiteProgress` each line is prefixed by the
        cell's experiment key.

        ``cache`` — a :class:`repro.analysis.cache.ResultCache` — memoizes
        the pool: cells already in the content-addressed store (or in the
        journal of an interrupted run of this same campaign) are served
        without executing, and every fresh result is checkpointed as it
        streams in, making the whole campaign resumable. Because the cache
        key is content-addressed (code digest + experiment + params, never
        pool position), ``workers`` does not fragment it.
        """
        pool = sorted(self.cells(), key=lambda cell: -cell.cost)
        pooled = run_cells(
            pool, name=self.name, workers=workers, progress=progress, cache=cache
        )
        by_experiment: dict[str, list[CellResult]] = {key: [] for key in self.keys}
        for cell in pooled.cells:
            by_experiment[cell.tags["experiment"]].append(
                replace(cell, index=cell.tags["cell"])
            )
        demuxed: dict[str, SuiteResult] = {}
        for key, cells in by_experiment.items():
            cells.sort(key=lambda cell: cell.index)
            demuxed[key] = SuiteResult(
                name=f"{key}-sweep",
                cells=cells,
                wall_time=sum(cell.wall_time for cell in cells),
                workers=pooled.workers,
            )
        return CampaignResult(suite=pooled, by_experiment=demuxed)
