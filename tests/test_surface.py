"""The settable surface, pinned: the exact parameters of the sim, suite and
search entry points, the kernel rungs, the simulator's exception classes,
the delay-model names removed for good, the observer hooks and network
methods of the message interface, the horizon-heap names removed for good,
the functions of the C extension, and the two oracle configurations the
performance ruler (``benchmarks/perf``) builds.

Every option is one more configuration the differentials must hold equal,
so adding or removing one is a deliberate change to this file. The ruler
test imports ``benchmarks.perf.workloads`` itself: a deletion that breaks
the ruler's correctness checks fails tier-1 on every CI leg, not only the
compiled leg's ``--quick`` smoke step. The shipped callers outside ``src/``
(``benchmarks/``, ``benchmarks/perf/``, ``examples/``) are held the other
way round: every ``repro`` name one of them imports must still exist, so a
deletion that strands a benchmark or example fails here even when tier-1
never runs that script.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro.sim
from repro.analysis.cache import ResultCache
from repro.analysis.experiments import Campaign
from repro.search import falsify, replay_witness
from repro.sim import (
    HAS_COMPILED,
    KERNELS,
    Simulation,
    SimObserver,
    build_simulation,
    make_network,
)
from repro.sim.kernel import CompiledPackedNetwork, PackedNetwork
from repro.sim.network import Network
from repro.suite import ScenarioSuite, run_cells

SURFACE = {
    Simulation.__init__: [
        "self", "processes", "failure_pattern", "detector", "delay_model",
        "seed", "timeout_interval", "scheduling",
        "message_batch", "engine", "kernel", "record", "observers",
    ],
    make_network: ["n", "delay_model", "kernel"],
    build_simulation: [
        "spec", "processes", "detector", "observers",
    ],
    run_cells: ["cells", "name", "workers", "progress", "cache"],
    ResultCache.session: ["self", "name", "cells"],
    ScenarioSuite.run: ["self", "workers", "progress", "cache"],
    Campaign.run: ["self", "workers", "progress", "cache"],
    replay_witness: ["witness", "kernel", "workers"],
    falsify: [
        "target_name", "budget", "seed", "batch", "workers", "kernel",
        "restart_after", "t0", "decay", "progress",
    ],
}


@pytest.mark.parametrize("fn", SURFACE, ids=lambda fn: fn.__qualname__)
def test_parameter_names_are_pinned(fn):
    assert list(inspect.signature(fn).parameters) == SURFACE[fn]


# One run spec: every protocol run is a RunSpec of plain values built by
# build_simulation, naming its protocol in one registry. Adding a field or a
# protocol name is a deliberate edit here; the builders the spec replaced
# stay gone, with no alias.

def test_run_spec_fields_are_pinned():
    from dataclasses import fields

    from repro.sim import RunSpec

    assert [f.name for f in fields(RunSpec)] == [
        "n", "duration", "protocol", "protocol_args", "crashes", "inputs",
        "seed", "tau", "pre", "leader", "links", "timeout_interval",
        "scheduling", "message_batch", "engine", "kernel", "record",
    ]


def test_protocol_names_are_pinned():
    from repro.protocols import PROTOCOLS

    assert list(PROTOCOLS) == [
        "etob", "etob-arrival-order", "ec", "eic", "ec-etob", "etob-ec",
        "tob-consensus", "tob-ct",
    ]


def test_the_replaced_run_builders_stay_gone():
    import repro.analysis.experiments.base as experiments_base
    import repro.search.targets as targets

    assert not hasattr(repro.sim, "ReplayPlan")
    assert "ReplayPlan" not in repro.sim.__all__
    for module, names in (
        (experiments_base, ("_run_broadcast_scenario", "_broadcast_protocol",
                            "_detector")),
        (targets, ("_etob_processes", "_omega_history", "_EXP4_BROADCASTS",
                   "_EXP8_BROADCASTS")),
    ):
        assert [n for n in names if hasattr(module, n)] == [], module


# Code that only its own tests reached left ``src/``: the fluent builder
# (tests build ``RunSpec`` + ``build_simulation``), the timeline renderer,
# the URB / multivalued-consensus stack, two run checkers, ``run_while``,
# the live-pending counter (quiescence reads the delivery cursors), the
# list-of-records recorder (the columnar store's oracle in
# ``tests/helpers.py``), the ``demo-rugged`` falsify target (registered
# by ``tests/test_falsify.py`` for its own tests), the per-cell experiment
# result with its table (an experiment returns its rows), and the suite and
# table views only their own tests read.

@pytest.mark.parametrize(
    "module", ["repro.scenario", "repro.sim.tracing", "repro.broadcast",
               "repro.properties.urb_checker", "repro.consensus.multivalued"],
)
def test_the_test_only_modules_stay_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_the_test_only_names_stay_gone():
    import repro.analysis.experiments
    import repro.analysis.experiments.base
    import repro.consensus
    import repro.properties
    import repro.sim
    from repro.analysis.tables import Table
    from repro.search import OBJECTIVES, registered_targets
    from repro.suite import SuiteResult

    for module, names in (
        (repro, ("Scenario", "UrbLayer", "MultivaluedConsensusLayer",
                 "check_urb")),
        (repro.consensus, ("MultivaluedConsensusLayer",)),
        (repro.properties, ("UrbReport", "check_urb", "check_fairness",
                            "check_no_undelivered", "fairness_slack")),
        (repro.sim, ("StepGapProbe", "LegacyFullRecorder")),
        (repro.sim.observers, ("LegacyFullRecorder",)),
        (Simulation, ("run_while", "_sync_crash_marks")),
        (Network, ("live_pending", "mark_crashed")),
        (repro.analysis.experiments, ("ExperimentResult",)),
        (repro.analysis.experiments.base, ("ExperimentResult",)),
        (SuiteResult, ("select", "rows", "render")),
        (Table, ("add_rows",)),
    ):
        assert [n for n in names if hasattr(module, n)] == [], module
    network = Network(2)
    assert not hasattr(network, "_live") and not hasattr(network, "_dead")
    assert len(network._counts) == 2  # sent, delivered
    assert set(OBJECTIVES) == {"etob_tau"}
    assert registered_targets() == ["exp4-tau", "exp8-tau"]


def test_one_cell_type_and_one_executor():
    """Grids, campaigns and falsifier rounds all hand ``Cell`` lists to
    ``run_cells``; the grid-only cell type and the pool-mode suite stay
    gone."""
    import repro.suite

    assert not hasattr(repro.suite, "SuiteCell")
    assert not hasattr(ScenarioSuite, "from_cells")


def test_kernel_rungs_are_pinned():
    assert KERNELS == ("legacy", "packed", "compiled-loop")


def test_the_simulator_errors_are_pinned():
    from repro.sim import errors

    assert sorted(
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    ) == [
        "ConfigurationError", "ProtocolError", "SimulationError",
        "SimulationFailed",
    ]
    assert issubclass(errors.SimulationFailed, errors.SimulationError)
    assert repro.sim.SimulationFailed is errors.SimulationFailed


# One delay-model family: every model lives in ``repro.sim.envs`` and draws
# pure in ``(seed, link, send time)``; the network is only the buffer. The
# stream-drawn models, the grouped partition pair and the duplicate fixed
# model stay gone, and nothing under ``src/repro`` holds a stream RNG.

REMOVED_DELAY_NAMES = (
    "FixedDist", "GstDelay", "PartitionWindow", "PartitionedDelay",
    "UniformRandomDelay",
)


@pytest.mark.parametrize(
    "module", [repro, repro.sim], ids=lambda module: module.__name__
)
def test_the_removed_delay_models_stay_gone(module):
    assert [n for n in REMOVED_DELAY_NAMES if hasattr(module, n)] == []
    assert set(REMOVED_DELAY_NAMES).isdisjoint(module.__all__)


def test_the_network_defines_no_delay_model():
    from repro.sim import envs, network

    assert sorted(
        name for name, value in vars(network).items()
        if isinstance(value, type) and value.__module__ == network.__name__
    ) == ["Envelope", "Network"]
    assert network.FixedDelay is envs.FixedDelay is repro.sim.FixedDelay


def test_failure_environments_do_not_sample():
    assert not hasattr(repro.sim.Environment, "sample")


def test_no_stream_rng_under_src():
    stream = re.compile(r"import random|random\.Random")
    hits = [
        f"{path.relative_to(ROOT).as_posix()}:{number}"
        for path in sorted((ROOT / "src" / "repro").rglob("*"))
        if path.suffix in (".py", ".c")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if stream.search(line)
    ]
    assert hits == []


# The message interface: a step ``(p, m, d)`` carries the one message it
# consumes, so observers see steps only, and every network answers the
# scheduler's three calls without building an ``Envelope``. Re-adding a
# per-envelope hook or method is a deliberate change to these pins.

def test_observer_hooks_are_pinned():
    assert sorted(n for n in vars(SimObserver) if n.startswith("on_")) == [
        "on_finish", "on_idle_span", "on_idle_step", "on_log", "on_step",
        "on_step_raw",
    ]


@pytest.mark.parametrize("cls", [PackedNetwork, CompiledPackedNetwork])
def test_packed_network_methods_are_pinned(cls):
    assert sorted(n for n in vars(cls) if not n.startswith("_")) == [
        "pool_free", "pool_slots", "pop_deliverable_batch_raw",
        "send_all_packed", "send_packed",
    ]


def test_every_network_answers_the_schedulers_three_calls():
    for name in ("send_packed", "send_all_packed", "pop_deliverable_batch_raw"):
        assert callable(getattr(Network, name)), name


# One next-event query: the scheduler scans the per-process cursors
# (``Network._next_at``, ``Simulation._local_event``) on every loop, so the
# lazy horizon heaps behind a second query, their compaction factor and the
# scan-vs-heap cutover stay gone.

@pytest.mark.parametrize("name", ["SCAN_EVENT_CUTOVER", "DEFAULT_COMPACT_FACTOR"])
def test_the_horizon_heap_knobs_stay_gone(name):
    from repro.sim import kernel, network

    assert [m.__name__ for m in (repro.sim, kernel, network) if hasattr(m, name)] == []
    assert name not in repro.sim.__all__


def test_the_network_has_no_horizon_heap():
    for name in ("horizon_peek", "horizon_pop", "horizon_push", "_compact_horizon"):
        assert not hasattr(Network, name), name
    sim = Simulation([repro.sim.Process() for __ in range(2)])
    for obj, name in (
        (sim.network, "_horizon"), (sim, "_local_horizon"), (sim, "_scan_cutover"),
    ):
        assert not hasattr(obj, name), name


@pytest.mark.skipif(not HAS_COMPILED, reason="C extension not built")
def test_compiled_pool_methods_are_pinned():
    from repro.sim import _ckernel

    assert sorted(n for n in dir(_ckernel.Pool) if not n.startswith("_")) == [
        "free", "pop_due_batch", "slots",
    ]


@pytest.mark.skipif(not HAS_COMPILED, reason="C extension not built")
def test_compiled_module_functions_are_pinned():
    from repro.sim import _ckernel

    assert sorted(
        n for n, v in vars(_ckernel).items()
        if callable(v) and not isinstance(v, type)
    ) == [
        "block_permutation", "draw_below", "draw_unit", "layer_omega",
        "run_loop", "send_all_packed", "send_packed", "stable_hash",
    ]


@pytest.mark.skipif(not HAS_COMPILED, reason="C extension not built")
def test_compiled_module_constants_are_pinned():
    """Two read-only facts of the build: its source digest and the C
    loop's store stage capacity (a compile-time constant, not a knob)."""
    from repro.sim import _ckernel

    assert sorted(n for n in vars(_ckernel) if n.isupper()) == [
        "SOURCE_DIGEST", "STAGE_ROWS",
    ]
    assert _ckernel.STAGE_ROWS == 1024


def test_the_rulers_oracle_configurations_still_agree(tmp_path):
    """``dense_gossip`` against ``kernel="legacy", engine="naive"`` and
    ``sparse_adversary`` against ``engine="naive"``, each on a prefix and
    built by the ruler's own workload classes."""
    from benchmarks.perf.model import Context
    from benchmarks.perf.workloads import (
        DenseGossip,
        SparseAdversary,
        _prefix_check,
    )

    ctx = Context(seed=1, seconds=0.0, quick=True, trace=False, scratch=tmp_path)
    dense = DenseGossip(ctx)
    checks = [
        _prefix_check(
            "dense_gossip digest equals kernel=legacy, engine=naive",
            lambda **oracle: dense.build(ctx.size(20_000), **oracle),
            kernel="legacy", engine="naive",
        ),
        *SparseAdversary(ctx).checks(()),
    ]
    assert [(c.name, c.detail) for c in checks if not c.ok] == []
    assert any("engine=naive" in c.name for c in checks[1:])


ROOT = Path(__file__).resolve().parent.parent


def repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` for every ``repro`` import anywhere in ``path``,
    function bodies included; ``name`` is None for ``import repro.x``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.split(".")[0] == "repro":
                found += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            ]
    return found


#: every shipped script outside ``src/`` that imports from ``repro``.
SHIPPED = [
    path
    for folder in ("benchmarks", "benchmarks/perf", "examples")
    for path in sorted((ROOT / folder).glob("*.py"))
    if repro_imports(path)
]


def test_the_shipped_callers_are_found():
    names = {path.relative_to(ROOT).as_posix() for path in SHIPPED}
    assert {
        "benchmarks/generate_report.py",
        "benchmarks/perf/workloads.py",
        "examples/quickstart.py",
    } <= names


@pytest.mark.parametrize(
    "path", SHIPPED, ids=lambda path: path.relative_to(ROOT).as_posix()
)
def test_every_repro_name_a_shipped_caller_imports_exists(path):
    missing = []
    for module, name in repro_imports(path):
        try:
            target = importlib.import_module(module)
        except ModuleNotFoundError:
            missing.append(module)
            continue
        if name is None or name == "*" or hasattr(target, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            missing.append(f"{module}.{name}")
    assert missing == []
