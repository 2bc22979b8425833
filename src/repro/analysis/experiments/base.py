"""Experiment registry and sweep aggregation.

An *experiment* is a deterministic function returning its rows: one
``dict`` per scenario it ran, keyed by column name. Experiment modules
register their functions with the :func:`experiment` decorator; the
package ``__init__`` imports every module, so importing
``repro.analysis.experiments`` yields the complete registry.

The signature is the seed declaration. An experiment whose function takes a
``seed`` keyword is *seeded*: its seed reaches a source of nondeterminism
its claim quantifies over (environment delays, random scheduling, a seeded
detector history or client population). One that takes none is
*deterministic*: it computes the same rows on every run, so a campaign runs
it once per point of its extra axes. Either way an experiment expands into
:class:`~repro.suite.Cell` objects — see :meth:`ExperimentDef.cells` — each
a picklable unit (runner + resolved params + provenance tags) that can
execute through :func:`~repro.suite.run_cells`, the one worker pool. A
:class:`~repro.analysis.experiments.campaign.Campaign` pools the cells of
one or many experiments into one shared, cost-ordered pool.

Every experiment also declares a *report spec* — which row columns
identify a scenario (``group_by``), which are numeric measurements
(``metrics``), which are verdict booleans (``flags``), and which are
discrete outcomes quoted verbatim (``values``) — so :func:`aggregate_sweep`
can fold any sweep into a single mean ± spread table with per-seed verdict
counts (per-run for a deterministic experiment). Next to the spec, every
experiment declares its *claim*: a pure function over one cell's rows
returning named verdicts — the cross-row shape the paper asserts, which no
single row's flag can see — and :func:`claim_verdicts` evaluates it on
every completed cell, after the campaign, never inside one.
``benchmarks/generate_report.py`` builds EXPERIMENTS.md from exactly these
hooks; no experiment ships custom aggregation code. A row that lacks a
``group_by`` or ``flags`` column of its spec fails its cell (see
:func:`run_experiment`): a missing flag would otherwise read as a pass.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from statistics import mean, quantiles, stdev
from typing import Any, Callable, Sequence

from repro.analysis.tables import Table
from repro.sim.errors import ConfigurationError
from repro.suite import Axis, Cell, SuiteResult, expand, seed_values


@dataclass(frozen=True)
class ReportSpec:
    """How :func:`aggregate_sweep` folds an experiment's rows across seeds.

    Column roles over the row dicts the experiment returns:

    - ``group_by`` — columns identifying one scenario of the experiment; rows
      sharing these values across seeds aggregate into one table row;
    - ``metrics`` — numeric measurements, reported as ``mean ± spread``;
    - ``flags`` — boolean verdicts, reported as ``true/total`` seed counts;
    - ``values`` — discrete outcomes (an elected leader, a paper constant),
      reported as the set of distinct values observed across seeds.
    """

    group_by: tuple[str, ...]
    metrics: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()
    values: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExperimentDef:
    """One registered experiment: key, runner, title, claim, report spec,
    and its campaign face — a cost hint plus the declared extra sweep axes.

    ``claim`` maps one cell's rows to named verdicts (see
    :func:`claim_verdicts`); the first line of its docstring is the paper
    claim the report's summary table quotes. ``cost`` is a *relative*
    wall-time hint (roughly seconds per cell on the reference machine): a
    campaign sorts its pooled cells cost-descending so the long tails
    (EXP-7) start first and overlap the cheap cells. ``axes``
    declares the extra :class:`~repro.suite.Axis` dimensions the experiment
    supports sweeping beyond ``seed`` (each axis name must be a keyword of
    ``fn``, with the declared values as the recommended sweep).
    """

    key: str
    fn: Callable[..., list[dict]]
    title: str
    claim: Callable[[list[dict]], dict[str, bool]]
    report: ReportSpec
    cost: float = 1.0
    axes: tuple[Axis, ...] = ()

    @property
    def seeded(self) -> bool:
        """Whether ``fn`` takes a ``seed`` keyword; one that takes none is
        deterministic and runs once per point of its extra axes."""
        return "seed" in inspect.signature(self.fn).parameters

    def declared_axis(self, name: str) -> Axis:
        """The declared extra axis called ``name``."""
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise ConfigurationError(
            f"experiment {self.key!r} declares no axis {name!r}; "
            f"declared: {[axis.name for axis in self.axes]}"
        )

    def cells(
        self,
        seeds: int | Sequence[int],
        *,
        base_seed: int = 0,
        axes: dict[str, Sequence[Any]] | None = None,
    ) -> list[Cell]:
        """Expand this experiment into picklable campaign cells.

        One cell per point of ``seed × extra axes`` (seed-major, axes in
        declaration order), each invoking the experiment function with that
        seed (plus one value per extra axis) and returning its rows.
        ``seeds`` follows the suite's seed rule
        (:func:`~repro.suite.seed_values`): an integer asks for that many
        derived seeds, a list is used verbatim, none is refused. A
        deterministic experiment (see :attr:`seeded`) has no seed axis: one
        cell per point of its extra axes, whose params carry no seed. Every
        cell is tagged with its provenance — ``experiment`` (this key),
        ``seed`` (``None`` when deterministic), ``axes`` (the extra-axis
        values), and ``cell`` (the canonical index within this experiment's
        expansion) — so pooled results can be demultiplexed and reassembled
        deterministically regardless of execution order.
        """
        extra: list[Axis] = []
        for name, values in (axes or {}).items():
            if name == "seed":
                raise ConfigurationError(
                    "'seed' is the implicit first axis; pass seeds=... instead"
                )
            extra.append(Axis(name, tuple(values)))
        # Built either way, so an empty seed list is refused either way.
        seed_axis = Axis("seed", seed_values(seeds, base_seed))
        grid = expand([seed_axis, *extra] if self.seeded else extra)
        # Unpickling the runner in a cold worker imports this module's
        # package first, and its __init__ fills the whole registry.
        runner = functools.partial(run_experiment, self.key)
        return [
            Cell(
                runner=runner,
                params=params,
                tags={
                    "experiment": self.key,
                    "seed": params.get("seed"),
                    "axes": {axis.name: params[axis.name] for axis in extra},
                    "cell": index,
                },
                cost=self.cost,
            )
            for index, params in enumerate(grid)
        ]


#: key (e.g. ``"EXP-4"``) → definition; populated by the module decorators.
EXPERIMENT_REGISTRY: dict[str, ExperimentDef] = {}


def experiment(
    key: str,
    title: str = "",
    *,
    claim: Callable[[list[dict]], dict[str, bool]],
    group_by: Sequence[str],
    metrics: Sequence[str] = (),
    flags: Sequence[str] = (),
    values: Sequence[str] = (),
    cost: float = 1.0,
    axes: Sequence[Axis] = (),
) -> Callable:
    """Class the decorated function as experiment ``key`` in the registry.

    ``claim`` is required: every experiment states what it reproduces (see
    :class:`ExperimentDef`). So is ``group_by``: with ``metrics``,
    ``flags`` and ``values`` it declares the report spec every experiment
    has (see :class:`ReportSpec`). ``cost`` is the relative per-cell
    wall-time hint a campaign uses to order its shared cell pool; ``axes``
    declares extra sweep dimensions (see :class:`ExperimentDef`).
    """

    def decorate(fn: Callable[..., list[dict]]) -> Callable[..., list[dict]]:
        doc_lines = (fn.__doc__ or "").strip().splitlines()
        summary = title or (doc_lines[0] if doc_lines else key)
        report = ReportSpec(
            group_by=tuple(group_by),
            metrics=tuple(metrics),
            flags=tuple(flags),
            values=tuple(values),
        )
        EXPERIMENT_REGISTRY[key] = ExperimentDef(
            key, fn, summary, claim, report, cost=cost, axes=tuple(axes)
        )
        return fn

    return decorate


def run_experiment(key: str, **kwargs: Any) -> list[dict]:
    """Run one registered experiment by key; returns its rows.

    Raises ``ValueError`` on a row that lacks a ``group_by`` or ``flags``
    column of the experiment's report spec, so the cell fails instead of
    the missing flag reading as a pass. Metric and value columns may be
    absent (EXP-2's ETOB rows carry no ``k``).
    """
    try:
        definition = EXPERIMENT_REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown experiment {key!r}; known: {sorted(EXPERIMENT_REGISTRY)}"
        ) from None
    rows = definition.fn(**kwargs)
    required = definition.report.group_by + definition.report.flags
    for row in rows:
        missing = [column for column in required if column not in row]
        if missing:
            raise ValueError(f"{key} row {row!r} lacks declared column(s) {missing}")
    return rows


# ---------------------------------------------------------------------------
# sweep aggregation
# ---------------------------------------------------------------------------


def sweep_rows(result: SuiteResult) -> list[dict]:
    """Flatten the rows of one experiment's completed cells (a campaign's
    :meth:`~repro.analysis.experiments.campaign.CampaignResult.experiment`),
    each annotated with its cell's params."""
    return [
        {**cell.params, **row}
        for cell in result.cells
        if cell.ok
        for row in cell.value
    ]


def _spread(values: Sequence[float], metric: str) -> float:
    """Dispersion of ``values``: sample stdev (default) or IQR."""
    if len(values) < 2:
        return 0.0
    if metric == "stdev":
        return stdev(values)
    if metric == "iqr":
        q1, __, q3 = quantiles(values, n=4, method="inclusive")
        return q3 - q1
    raise ValueError(f"unknown spread metric {metric!r}; use 'stdev' or 'iqr'")


def _fold_group(
    spec: ReportSpec, group: list[dict], spread: str
) -> tuple[list[Any], dict[str, Any]]:
    """Aggregate one group of rows: display cells + machine-readable fields.

    The display cells cover, in order, every ``metrics`` column
    (``mean ± spread``), every ``values`` column (distinct outcomes), and
    every ``flags`` column (``true/total``); the dict holds the same
    aggregates for the JSON report.
    """
    cells: list[Any] = []
    agg_row: dict[str, Any] = {}
    for metric in spec.metrics:
        numbers = [
            row[metric]
            for row in group
            if isinstance(row.get(metric), (int, float))
            and not isinstance(row.get(metric), bool)
        ]
        if not numbers:
            cells.append("-")
            agg_row[metric] = None
            continue
        mu = mean(numbers)
        sigma = _spread(numbers, spread)
        cells.append(f"{mu:.2f} ± {sigma:.2f}")
        agg_row[metric] = {
            "mean": mu,
            "spread": sigma,
            "min": min(numbers),
            "max": max(numbers),
            "count": len(numbers),
        }
    for column in spec.values:
        distinct = sorted({repr(row.get(column)) for row in group})
        # ", " — never " | ", which Table.render uses as the column
        # separator and would make multi-outcome cells read as columns.
        cells.append(", ".join(distinct))
        agg_row[column] = distinct
    for flag in spec.flags:
        verdicts = [bool(row[flag]) for row in group]
        cells.append(f"{sum(verdicts)}/{len(verdicts)}")
        agg_row[flag] = {"true": sum(verdicts), "total": len(verdicts)}
    return cells, agg_row


def aggregate_sweep(
    key: str,
    result: SuiteResult,
    *,
    spread: str = "stdev",
    pivot: str | None = None,
) -> tuple[Table, list[dict]]:
    """Fold one experiment's sweep (see :func:`sweep_rows`) into one
    mean ± spread table.

    Rows are grouped by the experiment's :class:`ReportSpec` ``group_by``
    columns (in first-seen order — the experiment's own scenario order);
    within each group, ``metrics`` aggregate to ``mean ± spread`` over the
    seeds (non-numeric / missing entries are skipped), ``flags`` to
    ``true/total`` counts, and ``values`` to the set of distinct outcomes.
    A deterministic experiment's title counts runs instead of seeds, and
    its flag columns count runs.
    Returns the rendered :class:`~repro.analysis.tables.Table` plus
    machine-readable aggregate rows (mean/spread/min/max per metric,
    true/total per flag) for the JSON report.

    ``pivot`` renders a two-axis sweep the readable way: the named column —
    typically an extra sweep axis, e.g. ``n`` after
    ``Campaign(["EXP-4"]).extend("EXP-4", n=[4, 5])`` — becomes *columns*
    instead of extra rows.
    Each table row keeps the remaining ``group_by`` identity; every
    aggregate column is repeated once per pivot value (``tau [n=4] |
    tau [n=5] | …``), with ``-`` where a combination produced no rows. The
    machine-readable aggregates stay unpivoted — one dict per
    ``group × pivot value``, each carrying its pivot column — so JSON
    consumers never have to parse header labels.
    """
    definition = EXPERIMENT_REGISTRY[key]
    spec = definition.report
    rows = sweep_rows(result)
    spread_tag = "sd" if spread == "stdev" else spread
    spread_name = "sample stdev" if spread == "stdev" else "IQR"
    if definition.seeded:
        seeds = {row["seed"] for row in rows if "seed" in row}
        runs, unit = f"{len(seeds)} seeds, spread = {spread_name}", "seeds"
    else:
        count = len(result.cells)
        runs, unit = f"deterministic: {count} run{'s' if count != 1 else ''}", "runs"
    title = f"{key}: {definition.title} — {runs}"

    if pivot is None:
        groups: dict[tuple, list[dict]] = {}
        for row in rows:
            groups.setdefault(
                tuple(row.get(c) for c in spec.group_by), []
            ).append(row)
        headers = (
            list(spec.group_by)
            + [f"{m} (mean ± {spread_tag})" for m in spec.metrics]
            + list(spec.values)
            + [f"{f} ({unit})" for f in spec.flags]
        )
        table = Table(title, headers)
        aggregated: list[dict] = []
        for group_key, group in groups.items():
            cells, agg_fields = _fold_group(spec, group, spread)
            table.add_row(*group_key, *cells)
            aggregated.append({**dict(zip(spec.group_by, group_key)), **agg_fields})
        return table, aggregated

    # Pivoted rendering: `pivot` leaves the row identity and becomes columns.
    if rows and not any(pivot in row for row in rows):
        raise ValueError(
            f"pivot column {pivot!r} appears in no row of the {key!r} sweep; "
            "pivot on a group_by column or a swept axis"
        )
    group_cols = [c for c in spec.group_by if c != pivot]
    pivot_values: list[Any] = []
    pivoted: dict[tuple, dict[Any, list[dict]]] = {}
    for row in rows:
        value = row.get(pivot)
        if value not in pivot_values:
            pivot_values.append(value)
        group_key = tuple(row.get(c) for c in group_cols)
        pivoted.setdefault(group_key, {}).setdefault(value, []).append(row)

    per_value_headers = (
        [f"{m} (mean ± {spread_tag})" for m in spec.metrics]
        + list(spec.values)
        + [f"{f} ({unit})" for f in spec.flags]
    )
    headers = list(group_cols) + [
        f"{h} [{pivot}={v}]" for v in pivot_values for h in per_value_headers
    ]
    table = Table(f"{title}, pivoted on {pivot}", headers)
    aggregated = []
    for group_key, by_value in pivoted.items():
        cells = list(group_key)
        for value in pivot_values:
            group = by_value.get(value)
            if group is None:
                cells.extend("-" for __ in per_value_headers)
                continue
            folded, agg_fields = _fold_group(spec, group, spread)
            cells.extend(folded)
            aggregated.append(
                {**dict(zip(group_cols, group_key)), pivot: value, **agg_fields}
            )
        table.add_row(*cells)
    return table, aggregated


def claim_verdicts(key: str, result: SuiteResult) -> list[dict]:
    """Evaluate experiment ``key``'s claim on every completed cell of one
    demultiplexed sweep (see :meth:`CampaignResult.experiment
    <repro.analysis.experiments.campaign.CampaignResult.experiment>`).

    One entry per completed cell, in canonical order: the cell's params
    (``seed`` plus any swept axis) and ``verdicts``, the claim's named
    booleans over that cell's rows. Claims run here, after the campaign —
    never inside a cell — so cell values and cached results do not depend
    on them.
    """
    claim = EXPERIMENT_REGISTRY[key].claim
    return [
        {**cell.params, "verdicts": claim(cell.value)}
        for cell in result.cells
        if cell.ok
    ]
