"""Tests for the scenario-suite runner (grids, seeding, workers, streaming
execution, and one-experiment campaigns)."""

import io
import os

import pytest

from repro.properties import check_etob
from repro.sim import FixedDelay, RunSpec, run_plan
from repro.sim.errors import ConfigurationError
from repro.suite import (
    Axis,
    Cell,
    CellResult,
    ScenarioSuite,
    SuiteExecutionError,
    SuiteProgress,
    SuiteResult,
    derive_seed,
    run_cells,
    seed_values,
)


def etob_tau_cell(*, tau, seed):
    """Module-level cell runner (parallel workers need picklable callables)."""
    sim = run_plan(RunSpec(
        n=3, duration=max(900, tau * 3 + 300), protocol="etob", seed=seed,
        tau=tau, links=FixedDelay(2), inputs=((0, 20, ("broadcast", "m")),),
    ))
    return check_etob(sim.run).ok


def failing_cell(*, seed):
    raise ValueError(f"boom {seed}")


def dying_cell(*, seed):
    """Hard worker death: no exception to capture, the process just vanishes."""
    os._exit(13)


def slow_when_small_cell(*, seed):
    """Finishes out of grid order under parallel execution."""
    import time

    time.sleep(0.15 if seed == 0 else 0.0)
    return seed


def add_cell(*, a, b):
    return a + b


class TestGrid:
    def test_cells_are_cross_product_in_declaration_order(self):
        suite = ScenarioSuite(add_cell).axis("a", [1, 2]).axis("b", [10, 20, 30])
        cells = suite.cells()
        assert len(cells) == 6
        assert cells[0].params == {"a": 1, "b": 10}
        assert cells[1].params == {"a": 1, "b": 20}
        assert cells[-1].params == {"a": 2, "b": 30}
        assert [c.index for c in cells] == list(range(6))

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSuite(add_cell).axis("a", [])

    def test_no_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSuite(add_cell).cells()

    def test_non_callable_runner_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSuite("not a function")

    def test_axes_shorthand(self):
        suite = ScenarioSuite(add_cell).axes(a=[1], b=[2, 3])
        assert len(suite.cells()) == 2

    def test_duplicate_axis_name_rejected(self):
        suite = ScenarioSuite(add_cell).axis("a", [1, 2])
        with pytest.raises(ConfigurationError, match="already declared"):
            suite.axis("a", [3])

    def test_duplicate_axis_via_seeds_rejected(self):
        suite = ScenarioSuite(add_cell).seeds([1, 2])
        with pytest.raises(ConfigurationError, match="already declared"):
            suite.seeds(3)

    def test_axis_object_accepted(self):
        suite = ScenarioSuite(add_cell).axis(Axis("a", (1, 2)))
        assert [c.params["a"] for c in suite.cells()] == [1, 2]
        with pytest.raises(ConfigurationError):
            suite.axis(Axis("b", (1,)), [2])  # both forms at once


class TestAxis:
    def test_values_coerced_to_tuple(self):
        axis = Axis("tau", [0, 100])
        assert axis.values == (0, 100)
        assert len(axis) == 2

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigurationError):
            Axis("tau", ())

    def test_non_identifier_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Axis("not a name", (1,))


def tagged_double(*, x):
    return 2 * x


def tagged_triple(*, x):
    return 3 * x


def pool():
    return [
        Cell(tagged_double, {"x": 3}, tags={"experiment": "DBL", "cell": 0}),
        Cell(tagged_triple, {"x": 3}, tags={"experiment": "TRP", "cell": 0}),
        Cell(tagged_double, {"x": 5}, tags={"experiment": "DBL", "cell": 1}),
    ]


def outcome(result):
    return [(c.index, c.value, c.tags) for c in result.cells]


class TestCellPool:
    def run(self, **kwargs):
        return run_cells(pool(), name="pool", **kwargs)

    def test_each_cell_runs_its_own_runner(self):
        result = self.run(workers=0)
        assert result.ok
        assert result.values() == [6, 9, 10]
        assert [c.index for c in result.cells] == [0, 1, 2]

    def test_tags_travel_through_results(self):
        result = self.run(workers=0)
        assert [c.tags["experiment"] for c in result.cells] == ["DBL", "TRP", "DBL"]

    def test_mixed_runners_agree_serial_parallel_and_cached(self, tmp_path):
        from repro.analysis.cache import ResultCache

        serial = self.run(workers=0)
        parallel = self.run(workers=2)
        cold = self.run(workers=2, cache=ResultCache(tmp_path))
        warm = self.run(workers=2, cache=ResultCache(tmp_path))
        assert [c.cached for c in cold.cells] == ["miss"] * 3
        assert [c.cached for c in warm.cells] == ["hit"] * 3
        for result in (parallel, cold, warm):
            assert outcome(result) == outcome(serial)

    def test_pool_indices_assigned_in_given_order(self):
        cells = pool()[::-1]
        result = run_cells(cells, name="pool", workers=0)
        assert [c.index for c in result.cells] == [0, 1, 2]
        assert result.values() == [10, 9, 6]
        assert [c.index for c in cells] == [-1, -1, -1]  # the caller's cells

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            run_cells([], name="pool")

    def test_non_cell_rejected(self):
        with pytest.raises(ConfigurationError):
            run_cells([object()], name="pool")

    def test_a_grid_is_a_list_of_cells_over_one_runner(self):
        cells = ScenarioSuite(add_cell).axis("a", [1, 2]).axis("b", [5]).cells()
        assert all(isinstance(c, Cell) and c.runner is add_cell for c in cells)
        assert [c.tags for c in cells] == [{}, {}]

    def test_progress_prefix_uses_experiment_tag(self):
        buffer = io.StringIO()
        result = self.run(
            workers=0, progress=SuiteProgress(stream=buffer, label="static")
        )
        assert result.ok
        lines = buffer.getvalue().splitlines()
        assert lines[0].startswith("[1/3] DBL: x=3 -> 6")
        assert lines[1].startswith("[2/3] TRP: x=3 -> 9")

    def test_progress_prefix_falls_back_to_label(self):
        buffer = io.StringIO()
        ScenarioSuite(add_cell).axis("a", [1]).axis("b", [5]).run(
            workers=0, progress=SuiteProgress(stream=buffer, label="static")
        )
        assert buffer.getvalue().startswith("[1/1] static: a=1, b=5 -> 6")


class TestSeeding:
    def test_derive_seed_is_stable(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert derive_seed(0, 0) != derive_seed(0, 1)
        assert derive_seed(0, 0) != derive_seed(1, 0)

    def test_seeds_count_expands_deterministically(self):
        a = ScenarioSuite(add_cell, base_seed=5).seeds(3)._axes["seed"].values
        b = ScenarioSuite(add_cell, base_seed=5).seeds(3)._axes["seed"].values
        assert a == b
        assert len(set(a)) == 3

    def test_explicit_seed_values_used_verbatim(self):
        suite = ScenarioSuite(add_cell).seeds([4, 8])
        assert suite._axes["seed"].values == (4, 8)

    def test_zero_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSuite(add_cell).seeds(0)

    def test_suites_and_experiments_share_one_seed_rule(self):
        from repro.analysis.experiments import EXPERIMENT_REGISTRY

        definition = EXPERIMENT_REGISTRY["EXP-10c"]  # a seeded experiment
        suite = ScenarioSuite(add_cell, base_seed=5).seeds(3).axis("b", [1, 2])
        by_suite = [(c.params["seed"], c.params["b"]) for c in suite.cells()]
        by_experiment = [
            (c.params["seed"], c.params["b"])
            for c in definition.cells(3, base_seed=5, axes={"b": [1, 2]})
        ]
        assert by_suite == by_experiment
        assert [seed for seed, __ in by_suite[::2]] == list(seed_values(3, 5))
        with pytest.raises(ConfigurationError, match="at least one seed"):
            definition.cells([])
        with pytest.raises(ConfigurationError, match="at least one seed"):
            ScenarioSuite(add_cell).seeds([])


class TestExecution:
    def test_serial_run_returns_values_in_grid_order(self):
        result = (
            ScenarioSuite(add_cell).axis("a", [1, 2]).axis("b", [10]).run(workers=0)
        )
        assert isinstance(result, SuiteResult)
        assert result.ok
        assert result.values() == [11, 12]
        assert result.workers == 1

    def test_cell_errors_are_captured_not_raised(self):
        result = ScenarioSuite(failing_cell).seeds([1, 2]).run(workers=0)
        assert not result.ok
        assert len(result.failures()) == 2
        assert "boom" in result.failures()[0].error
        assert result.values() == [None, None]

    def test_parallel_matches_serial(self):
        suite = ScenarioSuite(add_cell).axis("a", [1, 2, 3]).axis("b", [10, 20])
        serial = suite.run(workers=0)
        parallel = suite.run(workers=2)
        assert parallel.ok
        assert serial.values() == parallel.values()
        assert [c.params for c in serial.cells] == [c.params for c in parallel.cells]

    def test_parallel_scenario_cells(self):
        result = (
            ScenarioSuite(etob_tau_cell)
            .axis("tau", [0, 150])
            .seeds([0, 1])
            .run(workers=2)
        )
        assert result.ok, result.failures()
        assert result.values() == [True, True, True, True]


class TestStreaming:
    def test_reassembly_is_deterministic_despite_completion_order(self):
        # Cell 0 sleeps, so parallel completion order differs from grid
        # order; the assembled result must not.
        suite = ScenarioSuite(slow_when_small_cell).seeds([0, 1, 2, 3])
        result = suite.run(workers=4)
        assert result.ok
        assert result.values() == [0, 1, 2, 3]
        assert [c.index for c in result.cells] == [0, 1, 2, 3]

    def test_progress_callback_sees_every_cell(self):
        seen = []
        result = (
            ScenarioSuite(add_cell)
            .axis("a", [1, 2])
            .axis("b", [5, 6])
            .run(
                workers=0,
                progress=lambda cell, done, total: seen.append(
                    (cell.index, done, total)
                ),
            )
        )
        assert result.ok
        assert [done for __, done, __ in seen] == [1, 2, 3, 4]
        assert all(total == 4 for __, __, total in seen)
        assert sorted(index for index, __, __ in seen) == [0, 1, 2, 3]

    def test_progress_callback_fires_under_a_worker_pool(self):
        seen = []
        ScenarioSuite(add_cell).axis("a", [1, 2]).axis("b", [5]).run(
            workers=2,
            progress=lambda cell, done, total: seen.append(done),
        )
        assert seen == [1, 2]

    def test_serial_stream_accepts_closures_in_grid_order(self):
        suite = ScenarioSuite(lambda *, seed: seed + 1).seeds([1, 2])
        results = list(suite.stream(workers=0))
        assert [cell.value for cell in results] == [2, 3]
        assert [cell.index for cell in results] == [0, 1]

    def test_cell_exceptions_still_captured_per_cell(self):
        result = ScenarioSuite(failing_cell).seeds([1, 2]).run(workers=2)
        assert not result.ok
        assert len(result.failures()) == 2
        assert "boom" in result.failures()[0].error

    def test_worker_crash_surfaces_instead_of_hanging(self):
        with pytest.raises(SuiteExecutionError, match="worker process died"):
            list(ScenarioSuite(dying_cell).seeds([0, 1]).stream(workers=2))

    def test_worker_crash_surfaces_through_run(self):
        with pytest.raises(SuiteExecutionError):
            ScenarioSuite(dying_cell).seeds([0, 1]).run(workers=2)

    def test_streaming_scenario_cells_match_serial(self):
        suite = ScenarioSuite(etob_tau_cell).axis("tau", [0, 150]).seeds([0, 1])
        serial = suite.run(workers=0)
        stream = suite.run(workers=2)
        assert stream.ok, stream.failures()
        assert stream.values() == serial.values()

    def test_suite_progress_renders_a_line_per_cell(self):
        buffer = io.StringIO()
        result = ScenarioSuite(add_cell).axis("a", [1]).axis("b", [5, 6]).run(
            workers=0,
            progress=SuiteProgress(stream=buffer, label="demo"),
        )
        assert result.ok
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[1/2] demo: a=1, b=5 -> 6")
        assert lines[1].startswith("[2/2]")


class TestExperimentSweep:
    def test_campaign_runs_one_experiment_across_seeds(self):
        from repro.analysis.experiments import Campaign, sweep_rows

        outcome = Campaign(["EXP-10c"], seeds=[0, 1]).run(workers=0)
        result = outcome.experiment("EXP-10c")
        assert result.ok, result.failures()
        assert len(result.cells) == 2
        rows = sweep_rows(result)
        # Three GSTs per seed, each annotated with its seed parameter.
        assert len(rows) == 6
        assert {row["seed"] for row in rows} == {0, 1}
        assert all(row["correct"] for row in rows)

    def test_unknown_experiment_rejected(self):
        from repro.analysis.experiments import run_experiment

        with pytest.raises(KeyError):
            run_experiment("EXP-99")
