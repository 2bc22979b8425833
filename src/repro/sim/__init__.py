"""Deterministic discrete-event simulator for asynchronous message passing.

This package implements the computational model of the paper (Section 2):
processes are deterministic automata taking steps ``(p, m, d, A)`` against a
discrete global clock, connected by reliable links, subject to crash failures
described by a failure pattern, and informed by a failure detector history.

The public surface:

- :class:`~repro.sim.failures.FailurePattern` and
  :class:`~repro.sim.failures.Environment` — when and where crashes happen.
- :class:`~repro.sim.network.Network` with pluggable
  :class:`~repro.sim.network.DelayModel` — reliable links with finite but
  unbounded delays, including partition windows and GST-style partial synchrony.
- :mod:`repro.sim.envs` — composable, picklable adversarial environment
  models (heavy-tail / message-age-dependent delays, one-way partitions,
  flapping and eventually-stable links, node outages, churn waves), named
  in a registry (:func:`~repro.sim.envs.make_env`) and sweepable as an
  :class:`~repro.suite.Axis` via :func:`~repro.sim.envs.env_axis`.
- :class:`~repro.sim.process.Process` and :class:`~repro.sim.context.Context`
  — the automaton interface.
- :class:`~repro.sim.scheduler.Simulation` — the fair step scheduler producing
  :class:`~repro.sim.runs.RunRecord` objects (the paper's runs
  ``(F, H, H_I, H_O, S, T)``).
- :class:`~repro.sim.stack.ProtocolStack` and :class:`~repro.sim.stack.Layer`
  — composition of protocols, used by the paper's transformation algorithms.
"""

from repro.sim.context import Context
from repro.sim.envs import (
    AgeGstDist,
    EnvBounds,
    EnvModel,
    EventuallyStableLinks,
    FixedDist,
    FlappingLinks,
    HeavyTailDist,
    NodeOutage,
    OneWayPartition,
    UniformDist,
    env_axis,
    make_env,
    register_env,
    registered_envs,
)
from repro.sim.errors import ConfigurationError, SimulationError
from repro.sim.failures import ChurnSchedule, Environment, FailurePattern
from repro.sim.kernel import (
    DEFAULT_KERNEL,
    HAS_COMPILED,
    HAS_COMPILED_LOOP,
    KERNELS,
    SCAN_EVENT_CUTOVER,
    CompiledPackedNetwork,
    PackedNetwork,
    make_network,
)
from repro.sim.network import (
    DEFAULT_COMPACT_FACTOR,
    FixedDelay,
    GstDelay,
    Network,
    PartitionWindow,
    PartitionedDelay,
    UniformRandomDelay,
)
from repro.sim.observers import (
    RECORD_LEVELS,
    FullRecorder,
    LegacyFullRecorder,
    MetricsRecorder,
    OutputsRecorder,
    RunMetrics,
    SimObserver,
    StepGapProbe,
)
from repro.sim.process import Process
from repro.sim.replay import (
    ReplayPlan,
    build_simulation,
    replay_simulation,
    run_digest,
    run_plan,
)
from repro.sim.runs import RunRecord, StepRecord, StepStore
from repro.sim.scheduler import Simulation
from repro.sim.stack import Layer, LayerContext, ProtocolStack

__all__ = [
    "AgeGstDist",
    "ChurnSchedule",
    "CompiledPackedNetwork",
    "ConfigurationError",
    "Context",
    "DEFAULT_COMPACT_FACTOR",
    "DEFAULT_KERNEL",
    "HAS_COMPILED",
    "HAS_COMPILED_LOOP",
    "KERNELS",
    "SCAN_EVENT_CUTOVER",
    "PackedNetwork",
    "make_network",
    "EnvBounds",
    "EnvModel",
    "Environment",
    "EventuallyStableLinks",
    "FailurePattern",
    "FixedDelay",
    "FixedDist",
    "FlappingLinks",
    "HeavyTailDist",
    "NodeOutage",
    "OneWayPartition",
    "UniformDist",
    "env_axis",
    "make_env",
    "register_env",
    "registered_envs",
    "FullRecorder",
    "GstDelay",
    "Layer",
    "LegacyFullRecorder",
    "LayerContext",
    "MetricsRecorder",
    "Network",
    "OutputsRecorder",
    "PartitionWindow",
    "PartitionedDelay",
    "Process",
    "ProtocolStack",
    "RECORD_LEVELS",
    "ReplayPlan",
    "RunMetrics",
    "RunRecord",
    "SimObserver",
    "Simulation",
    "SimulationError",
    "StepGapProbe",
    "StepRecord",
    "StepStore",
    "UniformRandomDelay",
    "build_simulation",
    "replay_simulation",
    "run_digest",
    "run_plan",
]
