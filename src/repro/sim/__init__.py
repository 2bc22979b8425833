"""Deterministic discrete-event simulator for asynchronous message passing.

This package implements the computational model of the paper (Section 2):
processes are deterministic automata taking steps ``(p, m, d, A)`` against a
discrete global clock, connected by reliable links, subject to crash failures
described by a failure pattern, and informed by a failure detector history.

The public surface:

- :class:`~repro.sim.failures.FailurePattern` and
  :class:`~repro.sim.failures.Environment` — when and where crashes happen.
- :class:`~repro.sim.network.Network` — reliable links with finite but
  unbounded delays, each drawn by a :class:`~repro.sim.envs.DelayModel`.
- :mod:`repro.sim.envs` — every delay model, composable and picklable
  (fixed, uniform, heavy-tail and message-age-dependent GST delays,
  one-way partitions, flapping and eventually-stable links, node outages,
  churn waves), named
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
    FixedDelay,
    FlappingLinks,
    HeavyTailDist,
    NodeOutage,
    OneWayPartition,
    UniformDist,
    env_axis,
    env_links,
    make_env,
    register_env,
    registered_envs,
)
from repro.sim.errors import ConfigurationError, SimulationError, SimulationFailed
from repro.sim.failures import ChurnSchedule, Environment, FailurePattern
from repro.sim.kernel import (
    DEFAULT_KERNEL,
    HAS_COMPILED,
    HAS_COMPILED_LOOP,
    KERNELS,
    CompiledPackedNetwork,
    PackedNetwork,
    make_network,
)
from repro.sim.network import Network
from repro.sim.observers import (
    RECORD_LEVELS,
    FullRecorder,
    MetricsRecorder,
    OutputMonitor,
    OutputsRecorder,
    RunMetrics,
    SimObserver,
)
from repro.sim.process import Process
from repro.sim.replay import (
    RunSpec,
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
    "DEFAULT_KERNEL",
    "HAS_COMPILED",
    "HAS_COMPILED_LOOP",
    "KERNELS",
    "PackedNetwork",
    "make_network",
    "EnvBounds",
    "EnvModel",
    "Environment",
    "EventuallyStableLinks",
    "FailurePattern",
    "FixedDelay",
    "FlappingLinks",
    "HeavyTailDist",
    "NodeOutage",
    "OneWayPartition",
    "UniformDist",
    "env_axis",
    "env_links",
    "make_env",
    "register_env",
    "registered_envs",
    "FullRecorder",
    "Layer",
    "LayerContext",
    "MetricsRecorder",
    "Network",
    "OutputMonitor",
    "OutputsRecorder",
    "Process",
    "ProtocolStack",
    "RECORD_LEVELS",
    "RunMetrics",
    "RunRecord",
    "RunSpec",
    "SimObserver",
    "Simulation",
    "SimulationError",
    "SimulationFailed",
    "StepRecord",
    "StepStore",
    "build_simulation",
    "replay_simulation",
    "run_digest",
    "run_plan",
]
