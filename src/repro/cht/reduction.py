"""The distributed reduction ``T(D -> Omega)`` (paper, Appendix B.1/B.7).

Each process runs two tasks:

- *communication task* (Figure 1): on every local timeout, query the failure
  detector ``D`` (the step's ``ctx.fd_value``), append the sample to the
  local DAG with edges from all known vertices, and gossip the DAG snapshot;
  merge every received snapshot;
- *computation task*: periodically run the CHT extraction
  (:func:`repro.cht.extraction.extract_leader`) on the current DAG using a
  locally simulated copy of the EC algorithm, and publish the extracted
  leader via the output ``("omega", leader)``.

The emulated Omega output history of a run is thus the per-process stream of
``("omega", leader)`` outputs; the experiments check that it stabilizes on
the same correct process at all correct processes — Omega's defining
property — once the gossiped DAGs converge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cht.dag import SampleDag, SampleDagSnapshot
from repro.cht.extraction import ExtractionResult, extract_leader
from repro.cht.replay import ReplaySandbox, StackFactory
from repro.cht.tree import TreeBounds
from repro.sim.context import Context
from repro.sim.process import Process
from repro.sim.types import ProcessId


@dataclass(frozen=True)
class DagGossip:
    """The gossiped DAG snapshot."""

    snapshot: SampleDagSnapshot


class OmegaExtractionProcess(Process):
    """One process of the reduction algorithm."""

    def __init__(
        self,
        stack_factory: StackFactory,
        *,
        bounds: TreeBounds | None = None,
        analyze_every: int = 4,
        gossip_every: int = 1,
        max_samples: int | None = None,
        window: int | None = None,
    ) -> None:
        self.stack_factory = stack_factory
        self.bounds = bounds or TreeBounds()
        if analyze_every < 1 or gossip_every < 1:
            raise ValueError("analyze_every and gossip_every must be >= 1")
        self.analyze_every = analyze_every
        self.gossip_every = gossip_every
        #: stop sampling after this many local samples (bounds DAG growth so
        #: repeated extractions stay cheap); None = never stop.
        self.max_samples = max_samples
        #: extract from the last `window` query indices only (see
        #: SampleDag.windowed); None = whole DAG.
        self.window = window
        self.dag = SampleDag()
        self.current_leader: ProcessId | None = None
        self.last_result: ExtractionResult | None = None
        #: analysis rounds that produced a result (fresh or reused).
        self.extractions_run = 0
        #: of those, the rounds answered from an earlier result because the
        #: (windowed) DAG had a shape already extracted from.
        self.extractions_reused = 0
        #: over the fresh extractions: replayed steps that ran the simulated
        #: algorithm's handlers / that repeated a step already run in the
        #: same extraction (``ReplaySandbox.steps_executed``/``steps_shared``).
        self.steps_executed = 0
        self.steps_shared = 0
        #: DAG shape -> the result extracted from it (see _analyze).
        self._extracted: dict[tuple, ExtractionResult] = {}
        self._timeouts = 0
        self._local_samples = 0

    # -- communication task -----------------------------------------------------------

    def on_timeout(self, ctx: Context) -> None:
        if self.max_samples is None or self._local_samples < self.max_samples:
            self.dag.add_sample(ctx.pid, ctx.fd_value)
            self._local_samples += 1
            if self._timeouts % self.gossip_every == 0:
                ctx.send_all(DagGossip(self.dag.snapshot()), include_self=False)
        self._timeouts += 1
        if self._timeouts % self.analyze_every == 0:
            self._analyze(ctx)

    def on_message(self, ctx: Context, sender: ProcessId, payload: Any) -> None:
        if isinstance(payload, DagGossip):
            self.dag.union(payload.snapshot)

    # -- computation task ----------------------------------------------------------------

    def _analyze(self, ctx: Context) -> None:
        dag = self.dag if self.window is None else self.dag.windowed(self.window)
        if len(dag) == 0:
            return
        # extract_leader is a pure function of the DAG that compares query
        # indices only by order: a DAG of an already seen shape (unchanged
        # once sampling stops or gossip has converged; a window cycling
        # through a few shapes once the detector is stationary) needs no
        # second simulation tree. Only results are kept, never trees.
        shape = dag.shape()
        result = self._extracted.get(shape)
        if result is not None:
            self.extractions_reused += 1
        else:
            sandbox = ReplaySandbox(ctx.n, self.stack_factory)
            result = extract_leader(
                dag, self.stack_factory, ctx.n, bounds=self.bounds, sandbox=sandbox
            )
            self.steps_executed += sandbox.steps_executed
            self.steps_shared += sandbox.steps_shared
            if self.window is None:  # a growing DAG never returns to a shape
                self._extracted.clear()
            self._extracted[shape] = result
        self.last_result = result
        self.extractions_run += 1
        if result.leader != self.current_leader:
            self.current_leader = result.leader
            ctx.output(("omega", result.leader))
        ctx.log(
            (
                "extraction",
                result.confidence,
                result.leader,
                result.dag_vertices,
                result.tree_nodes,
            )
        )
