"""The failure-detector sample DAG (paper, Figure 1 and Appendix B.2).

Every vertex ``[q, d, k]`` records that process ``q`` obtained value ``d``
from its detector module in its ``k``-th query; an edge ``(v, w)`` means the
sample ``w`` was taken *after* ``v`` was known to ``w``'s owner. The local
construction — connect every existing vertex to each new sample, union in
gossiped DAGs — yields the properties the CHT proof uses:

(1) vertices carry genuine samples in temporal order;
(2) samples of one process are totally ordered;
(3) the DAG is transitively closed;
(4) DAGs of correct processes converge to a common ever-growing limit.

Properties (2)-(3) are consequences of the construction; the test suite
verifies them on sampled executions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.sim.types import ProcessId


@dataclass(frozen=True)
class DagVertex:
    """``[q, d, k]``: the k-th detector sample of process q (k is 1-based)."""

    pid: ProcessId
    k: int
    value: Any
    #: the deterministic order's key, computed once: every sorted view of a
    #: DAG asks for it, and ``repr`` of the value is most of its cost.
    _sort_key: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_sort_key", (self.k, self.pid, repr(self.value)))

    def sort_key(self) -> tuple:
        return self._sort_key


class SampleDag:
    """One process's ever-growing sample DAG."""

    def __init__(self) -> None:
        self._vertices: set[DagVertex] = set()
        #: successors: v -> set of w with edge (v, w).
        self._succ: dict[DagVertex, set[DagVertex]] = {}
        self._sample_counts: dict[ProcessId, int] = {}
        #: the view :meth:`snapshot` last built, until the DAG next changes.
        self._snapshot: SampleDagSnapshot | None = None

    # -- construction (Figure 1) ---------------------------------------------------

    def add_sample(self, pid: ProcessId, value: Any) -> DagVertex:
        """Record a new local detector sample; edges from every known vertex."""
        k = self._sample_counts.get(pid, 0) + 1
        self._sample_counts[pid] = k
        vertex = DagVertex(pid, k, value)
        for existing in self._vertices:
            self._succ.setdefault(existing, set()).add(vertex)
        self._vertices.add(vertex)
        self._succ.setdefault(vertex, set())
        self._snapshot = None
        return vertex

    def union(self, other: "SampleDag | SampleDagSnapshot") -> None:
        """Merge a gossiped DAG into this one (``G_p := G_p u G_q``)."""
        if isinstance(other, SampleDag):
            vertices = other._vertices
            edges = other._succ.items()
        else:
            vertices = other.vertices
            edges = other.edges
        size = self._size()
        self._vertices.update(vertices)
        for vertex, successors in edges:
            self._succ.setdefault(vertex, set()).update(successors)
        for vertex in vertices:
            self._succ.setdefault(vertex, set())
            count = self._sample_counts.get(vertex.pid, 0)
            if vertex.k > count:
                self._sample_counts[vertex.pid] = vertex.k
        if size != self._size():  # sets only grow: same counts, same DAG
            self._snapshot = None

    def _size(self) -> tuple[int, int, int]:
        return len(self._vertices), len(self._succ), sum(map(len, self._succ.values()))

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, vertex: DagVertex) -> bool:
        return vertex in self._vertices

    def vertices(self) -> list[DagVertex]:
        """All vertices in deterministic order."""
        return sorted(self._vertices, key=DagVertex.sort_key)

    def successors(self, vertex: DagVertex) -> list[DagVertex]:
        """Vertices reachable by one edge, in deterministic order."""
        return sorted(self._succ.get(vertex, ()), key=DagVertex.sort_key)

    def roots(self) -> list[DagVertex]:
        """Vertices with no incoming edge, in deterministic order."""
        with_incoming: set[DagVertex] = set()
        for successors in self._succ.values():
            with_incoming |= successors
        return sorted(self._vertices - with_incoming, key=DagVertex.sort_key)

    def has_edge(self, a: DagVertex, b: DagVertex) -> bool:
        return b in self._succ.get(a, ())

    def pids(self) -> set[ProcessId]:
        """Processes with at least one sample."""
        return set(self._sample_counts)

    def samples_of(self, pid: ProcessId) -> list[DagVertex]:
        """The samples of one process, ordered by query index."""
        return sorted(
            (v for v in self._vertices if v.pid == pid), key=lambda v: v.k
        )

    # -- structural checks (used by tests) ------------------------------------------

    def is_transitively_closed(self) -> bool:
        for a in self._vertices:
            for b in self._succ.get(a, ()):
                if not self._succ.get(b, set()) <= self._succ.get(a, set()):
                    return False
        return True

    def respects_query_order(self) -> bool:
        """Property (2): samples of one process are edge-ordered by k."""
        for pid in self.pids():
            samples = self.samples_of(pid)
            for earlier, later in zip(samples, samples[1:]):
                if not self.has_edge(earlier, later):
                    return False
        return True

    def windowed(self, window: int) -> "SampleDag":
        """A sub-DAG of the most recent samples (global query-index window).

        Retains vertices whose query index ``k`` lies within ``window`` of the
        globally largest index, with the induced edges. Used by the bounded
        reduction: the infinite CHT construction tolerates stale samples via
        its limit argument, while a bounded exploration can be pinned to a
        stale fork forever — restricting to a stationary recent suffix
        restores eventual correctness (samples of crashed processes stop
        growing and eventually fall out of the window).
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        if not self._vertices:
            return SampleDag()
        cutoff = max(v.k for v in self._vertices) - window
        keep = {v for v in self._vertices if v.k > cutoff}
        sub = SampleDag()
        sub._vertices = set(keep)
        sub._succ = {
            v: {w for w in self._succ.get(v, ()) if w in keep} for v in keep
        }
        sub._sample_counts = {
            pid: max(v.k for v in keep if v.pid == pid)
            for pid in {v.pid for v in keep}
        }
        return sub

    def snapshot(self) -> "SampleDagSnapshot":
        """An immutable copy suitable for gossiping (shared until the DAG
        next changes: equal DAGs gossip and compare as one object)."""
        if self._snapshot is None:
            self._snapshot = SampleDagSnapshot(
                vertices=tuple(self.vertices()),
                edges=tuple(
                    (v, tuple(sorted(self._succ[v], key=DagVertex.sort_key)))
                    for v in sorted(self._succ, key=DagVertex.sort_key)
                ),
            )
        return self._snapshot


@dataclass(frozen=True)
class SampleDagSnapshot:
    """Frozen DAG for the wire."""

    vertices: tuple[DagVertex, ...]
    edges: tuple[tuple[DagVertex, tuple[DagVertex, ...]], ...]
