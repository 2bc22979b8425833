"""Cells and the one executor that runs them across worker processes.

The unit of work is a :class:`Cell`: a runner, its keyword params, and
provenance tags. :func:`run_cells` executes any list of cells — serially or
across a ``multiprocessing`` pool — and returns one :class:`SuiteResult`.
Every sweep in this repository builds such a list: a
:class:`ScenarioSuite` expands a seed × axes grid over one runner, a
:class:`~repro.analysis.experiments.Campaign` pools the cells of many
experiments, and a falsifier round is a batch of trial cells::

    from repro.sim import RunSpec, run_plan
    from repro.suite import ScenarioSuite

    def cell(*, tau, seed):                     # module level → picklable
        sim = run_plan(RunSpec(
            n=4, duration=2000, protocol="etob", seed=seed, tau=tau,
            inputs=((0, 20, ("broadcast", "m")),),
        ))
        return check_etob(sim.run).tau

    result = (
        ScenarioSuite(cell)
        .axis("tau", [0, 100, 200])
        .seeds(8)
        .run(workers=4)
    )

Determinism: a grid is enumerated in a fixed order (the cross product of
the axes in declaration order, :func:`expand`) and each cell's parameters —
including its seed — are fixed before any worker starts, so results are
independent of worker count and scheduling. Derived seeds come from a
stable hash of ``(base_seed, index)`` reduced to 31 bits
(:func:`seed_values`), never from ``hash()`` or global RNG state.

Parallel execution pickles each cell to the workers, so its runner must be
a module-level callable (or a ``functools.partial`` of one) and the
returned values must be picklable. Serial execution (``workers=0``) accepts
any callable. Exceptions inside a cell do not abort the run; they are
captured per cell in :attr:`CellResult.error`.

Execution: results are consumed in *completion order* and reassembled
deterministically by cell index, so a ``progress`` callback — e.g.
:class:`SuiteProgress`, a live progress table — observes every cell as it
lands instead of waiting for the slowest. Hard worker deaths (a cell
calling ``os._exit``, a segfault, an OOM kill) surface as
:class:`SuiteExecutionError` rather than hanging. The tags travel through
:class:`CellResult`, so a pool of many experiments' cells can be
demultiplexed afterwards.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

from repro.sim.errors import ConfigurationError
from repro.sim.types import stable_hash


class SuiteExecutionError(RuntimeError):
    """A worker process died mid-suite; the run's results are incomplete.

    Distinct from a cell *raising* (captured per cell in
    :attr:`CellResult.error`): this is the pool itself breaking — a worker
    killed by a signal, an ``os._exit`` inside a cell, an OOM kill.
    """


@dataclass(frozen=True)
class Axis:
    """A named sweep dimension: an axis name plus the values it takes.

    The declarative unit shared by :meth:`ScenarioSuite.axis`, experiment
    definitions (:class:`~repro.analysis.experiments.ExperimentDef` declares
    the extra axes an experiment can sweep), and
    :class:`~repro.analysis.experiments.Campaign`. Values are stored as a
    tuple so an ``Axis`` is immutable and safely shareable.
    """

    name: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.isidentifier():
            raise ConfigurationError(
                f"axis name must be a valid identifier, got {self.name!r}"
            )
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ConfigurationError(
                f"axis {self.name!r} needs at least one value"
            )

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class Cell:
    """One picklable unit of work: runner + params + provenance.

    The only unit :func:`run_cells` executes, whatever built it: a
    :class:`ScenarioSuite` grid point, a campaign's experiment × seed ×
    axes point, a falsifier trial. Each cell carries its own ``runner``, so
    cells of many different experiments can share one worker pool.
    ``tags`` is free-form provenance (a campaign sets ``experiment`` /
    ``seed`` / ``axes`` / ``cell``) used to demultiplex pooled results;
    ``cost`` is a relative wall-time hint a campaign orders its pool by,
    most-expensive-first, so long tails overlap cheap cells. ``index`` is
    the cell's position in the list :func:`run_cells` is given.
    """

    runner: Callable[..., Any]
    params: dict[str, Any]
    tags: dict[str, Any] = field(default_factory=dict)
    cost: float = 1.0
    index: int = -1


@dataclass
class CellResult:
    """Outcome of one executed (or cache-served) cell.

    ``cached`` records how the result was obtained when the run consulted a
    result cache (see :mod:`repro.analysis.cache`): ``"hit"`` (served from
    the content-addressed store), ``"resumed"`` (recovered from the
    crash-safe journal of an interrupted run of the same campaign), or
    ``"miss"`` (freshly executed under an active cache). It stays ``None``
    on uncached runs and never participates in the cache key or the report
    artifacts — two runs differing only in cache temperature produce
    byte-identical numbers.
    """

    index: int
    params: dict[str, Any]
    value: Any = None
    error: str | None = None
    wall_time: float = 0.0
    tags: dict[str, Any] = field(default_factory=dict)
    cached: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def describe(self, *, value_width: int | None = None) -> str:
        """``param=value, ... -> outcome``: a :class:`SuiteProgress` line."""
        params = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        outcome = self.error if self.error is not None else repr(self.value)
        if value_width is not None and len(outcome) > value_width:
            outcome = outcome[: value_width - 3] + "..."
        return f"{params} -> {outcome}"


@dataclass
class SuiteResult:
    """All cell outcomes of one suite run, in grid order."""

    name: str
    cells: list[CellResult] = field(default_factory=list)
    wall_time: float = 0.0
    workers: int = 0

    @property
    def ok(self) -> bool:
        """True iff every cell ran without raising."""
        return all(cell.ok for cell in self.cells)

    def failures(self) -> list[CellResult]:
        return [cell for cell in self.cells if not cell.ok]

    def values(self) -> list[Any]:
        """The cell return values, in grid order (None for failed cells)."""
        return [cell.value for cell in self.cells]


def derive_seed(base_seed: int, index: int) -> int:
    """A decorrelated, stable per-cell seed (31-bit, reproducible everywhere)."""
    return stable_hash("suite-cell-seed", base_seed, index) % (1 << 31)


def seed_values(seeds: int | Iterable[int], base_seed: int = 0) -> tuple[int, ...]:
    """The ``seed`` axis values: ``k`` derived seeds, or the given ones.

    An integer asks for ``k`` deterministic seeds ``derive_seed(base_seed,
    i)``; an iterable is used verbatim. No seed at all is refused.
    """
    if isinstance(seeds, int):
        values = tuple(derive_seed(base_seed, i) for i in range(seeds))
    else:
        values = tuple(seeds)
    if not values:
        raise ConfigurationError("need at least one seed")
    return values


def expand(axes: Iterable[Axis]) -> list[dict[str, Any]]:
    """The cross product of ``axes``: one params dict per grid point, the
    first axis varying slowest (a leading ``seed`` axis makes it
    seed-major)."""
    axes = list(axes)
    names = [axis.name for axis in axes]
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(axis.values for axis in axes))
    ]


def _execute_cell(cell: Cell) -> CellResult:
    """Run one cell; capture exceptions instead of propagating them."""
    start = time.perf_counter()
    value, error = None, None
    try:
        value = cell.runner(**cell.params)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the point
        error = f"{type(exc).__name__}: {exc}"
    return CellResult(
        cell.index, cell.params, value=value, error=error,
        wall_time=time.perf_counter() - start, tags=cell.tags,
    )


def _require_picklable_runners(cells: Sequence[Cell], name: str) -> None:
    import pickle

    checked: set[int] = set()
    for cell in cells:
        if id(cell.runner) in checked:
            continue
        checked.add(id(cell.runner))
        try:
            pickle.dumps(cell.runner)
        except Exception as exc:
            raise ConfigurationError(
                f"suite runner {name!r} is not picklable ({exc}); "
                "parallel execution needs a module-level callable — "
                "use workers=0 to run closures serially"
            ) from exc


def _stream(
    cells: Sequence[Cell], *, name: str, workers: int | None
) -> Iterator[CellResult]:
    """Yield each cell's result as it completes (completion order).

    Serial (``workers`` <= 1) streams in list order from this process and
    accepts any callable. Parallel streams from a process pool in whatever
    order workers finish. A worker that dies outright raises
    :class:`SuiteExecutionError` naming the cell being awaited.
    """
    if not cells:
        return
    if workers is None:
        workers = min(os.cpu_count() or 1, len(cells))
    if workers <= 1:
        for cell in cells:
            yield _execute_cell(cell)
        return

    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    _require_picklable_runners(cells, name)
    executor = ProcessPoolExecutor(max_workers=min(workers, len(cells)))
    try:
        futures = {executor.submit(_execute_cell, cell): cell for cell in cells}
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                try:
                    yield future.result()
                except BrokenProcessPool as exc:
                    cell = futures[future]
                    raise SuiteExecutionError(
                        f"a worker process died while suite {name!r} "
                        f"awaited cell {cell.index} ({cell.params!r}); "
                        "completed results are unreliable — rerun the suite"
                    ) from exc
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


def run_cells(
    cells: Iterable[Cell],
    *,
    name: str,
    workers: int | None = None,
    progress: Callable[[CellResult, int, int], None] | None = None,
    cache: Any | None = None,
) -> SuiteResult:
    """Execute a list of cells; returns their results in list order.

    The one executor: a :class:`ScenarioSuite` grid, a
    :class:`~repro.analysis.experiments.Campaign` pool and a falsifier
    round all end here. Each cell's ``index`` is set to its position in
    ``cells`` (the caller owns any cost ordering *before* this call).

    ``workers=None`` uses one process per CPU (capped at the cell count);
    ``workers=0`` or ``1`` runs serially in this process and accepts any
    callable. Results are consumed in completion order and reassembled by
    index; a hard worker death surfaces as :class:`SuiteExecutionError`
    instead of hanging. ``progress`` — e.g. :class:`SuiteProgress` — is
    invoked as ``progress(result, completed, total)`` after each cell.
    Cell params (seeds included) are fixed before any worker starts, so
    the *result* never depends on the worker count.

    ``cache`` — a :class:`repro.analysis.cache.ResultCache` — makes the run
    memoized and resumable: cells whose content-addressed key is already in
    the store (or in the crash-safe journal of an interrupted run of these
    same cells) are served without dispatching, reported to ``progress``
    first (list order, marked ``hit``/``resumed``); every freshly executed
    result is journaled (append + fsync) the moment it streams in, *before*
    it is reported, so killing the process mid-run loses at most one
    in-flight cell. Only a run that completes promotes its journal into the
    store. Cache temperature never changes the returned numbers — a served
    result is the pickled payload of the identical earlier execution.
    """
    cells = list(cells)
    if not cells:
        raise ConfigurationError(f"suite {name!r} has no cells to run")
    for index, cell in enumerate(cells):
        if not isinstance(cell, Cell):
            raise ConfigurationError(f"run_cells expects Cell objects, got {cell!r}")
        if not callable(cell.runner):
            raise ConfigurationError(
                f"cell runner must be callable, got {cell.runner!r}"
            )
        cells[index] = replace(cell, index=index)
    total = len(cells)
    start = time.perf_counter()
    if workers is None:
        workers = min(os.cpu_count() or 1, total)

    session = None
    pending: Sequence[Cell] = cells
    results: list[CellResult] = []

    def note(result: CellResult) -> None:
        results.append(result)
        if progress is not None:
            progress(result, len(results), total)

    if cache is not None:
        session = cache.session(name, cells)
        pending = session.pending
        for served in session.served:
            note(served)

    for result in _stream(pending, name=name, workers=workers):
        if session is not None:
            session.record(result)
        note(result)
    if session is not None:
        session.commit()
    results.sort(key=lambda cell: cell.index)
    return SuiteResult(
        name=name,
        cells=results,
        wall_time=time.perf_counter() - start,
        workers=max(1, min(workers, total)),
    )


class ScenarioSuite:
    """A named parameter grid over one cell runner.

    The grid expands into :class:`Cell` objects (:meth:`cells`);
    :meth:`run` and :meth:`stream` hand them to the one executor,
    :func:`run_cells`.
    """

    def __init__(
        self,
        runner: Callable[..., Any],
        *,
        name: str | None = None,
        base_seed: int = 0,
    ) -> None:
        if not callable(runner):
            raise ConfigurationError(f"suite runner must be callable, got {runner!r}")
        self.runner = runner
        self.name = name or getattr(runner, "__name__", None) or "suite"
        self.base_seed = base_seed
        self._axes: dict[str, Axis] = {}

    # -- grid definition -----------------------------------------------------

    def axis(self, name: str | Axis, values: Iterable[Any] | None = None) -> "ScenarioSuite":
        """Add one grid axis — ``axis(name, values)`` or ``axis(Axis(...))``.

        A duplicate axis name raises :class:`ConfigurationError` — silently
        replacing a previously declared axis would shrink or reshape the
        grid behind the caller's back.
        """
        if isinstance(name, Axis):
            if values is not None:
                raise ConfigurationError(
                    "pass either axis(Axis(...)) or axis(name, values), not both"
                )
            axis = name
        else:
            axis = Axis(name, tuple(values if values is not None else ()))
        if axis.name in self._axes:
            raise ConfigurationError(
                f"axis {axis.name!r} is already declared on suite "
                f"{self.name!r}; axes must be unique"
            )
        self._axes[axis.name] = axis
        return self

    def axes(self, **axes: Iterable[Any]) -> "ScenarioSuite":
        """Add several axes at once (keyword name → values)."""
        for name, values in axes.items():
            self.axis(name, values)
        return self

    def seeds(self, seeds: int | Iterable[int]) -> "ScenarioSuite":
        """Add the ``seed`` axis: explicit values, or ``k`` derived ones
        (see :func:`seed_values`, with this suite's ``base_seed``)."""
        return self.axis("seed", seed_values(seeds, self.base_seed))

    def cells(self) -> list[Cell]:
        """The expanded grid: one cell per point, in declaration order."""
        if not self._axes:
            raise ConfigurationError("the suite has no axes; add axis()/seeds() first")
        return [
            Cell(self.runner, params, index=index)
            for index, params in enumerate(expand(self._axes.values()))
        ]

    # -- execution -------------------------------------------------------------

    def stream(self, *, workers: int | None = None) -> Iterator[CellResult]:
        """Yield each grid cell's result as it completes (completion order;
        consumers needing grid order sort by :attr:`CellResult.index`)."""
        return _stream(self.cells(), name=self.name, workers=workers)

    def run(
        self,
        *,
        workers: int | None = None,
        progress: Callable[[CellResult, int, int], None] | None = None,
        cache: Any | None = None,
    ) -> SuiteResult:
        """Execute every grid cell through :func:`run_cells`; returns
        results in grid order."""
        return run_cells(
            self.cells(), name=self.name, workers=workers, progress=progress,
            cache=cache,
        )


class SuiteProgress:
    """A ``progress`` callback rendering a live table, one line per cell.

    ::

        Campaign(["EXP-4"], seeds=3).run(progress=SuiteProgress())
        # [3/3] EXP-4: seed=1141668690 -> [{'tau_omega': 0, 'tau': 0, 'bound': 11, 'wit... (0.01s)

    Lines go to ``stream`` (default: stderr, keeping stdout clean for piped
    report output) as cells complete, so long sweeps show where they are
    instead of going dark until the end. When a pooled cell carries an
    ``experiment`` provenance tag (a :class:`Cell` from a campaign), that
    tag prefixes the line — one pool carries cells from many experiments,
    so a single static ``label`` could not identify them.

    Under a result cache (``run(cache=...)``) each line carries how the
    cell was obtained (``[cache hit]`` / ``[resumed]``; executed cells stay
    unmarked) and the final line is followed by a one-line hit/resume/miss
    summary with the overall served-from-cache rate.
    """

    def __init__(
        self, *, stream: TextIO | None = None, label: str | None = None,
        value_width: int = 48,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self.value_width = value_width
        self._cache_counts: dict[str, int] = {}

    def __call__(self, result: CellResult, completed: int, total: int) -> None:
        if completed <= 1:
            self._cache_counts = {}
        label = result.tags.get("experiment", self.label) if result.tags else self.label
        prefix = f"{label}: " if label else ""
        width = len(str(total))
        cached = getattr(result, "cached", None)
        if cached is not None:
            self._cache_counts[cached] = self._cache_counts.get(cached, 0) + 1
        marker = {"hit": " [cache hit]", "resumed": " [resumed]"}.get(cached, "")
        self.stream.write(
            f"[{completed:>{width}}/{total}] "
            f"{prefix}{result.describe(value_width=self.value_width)} "
            f"({result.wall_time:.2f}s){marker}\n"
        )
        if completed == total and self._cache_counts:
            hits = self._cache_counts.get("hit", 0)
            resumed = self._cache_counts.get("resumed", 0)
            misses = self._cache_counts.get("miss", 0)
            served = hits + resumed
            rate = 100.0 * served / total if total else 0.0
            self.stream.write(
                f"cache: {hits} hit, {resumed} resumed, {misses} executed "
                f"— {rate:.0f}% served from cache\n"
            )
        self.stream.flush()
