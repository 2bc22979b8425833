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

Every edge into ``w`` is made by ``w``'s owner when it takes the sample, and
a union only copies edges, so a DAG maps each vertex to the frozenset of its
in-neighbours built by ``add_sample``, shared by every snapshot and union.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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
        #: vertex -> the vertices with an edge into it.
        self._preds: dict[DagVertex, frozenset[DagVertex]] = {}
        self._sample_counts: dict[ProcessId, int] = {}
        #: the view :meth:`snapshot` last built, until the DAG next changes.
        self._snapshot: SampleDagSnapshot | None = None

    # -- construction (Figure 1) ---------------------------------------------------

    def add_sample(self, pid: ProcessId, value: Any) -> DagVertex:
        """Record a new local detector sample; edges from every known vertex."""
        k = self._sample_counts.get(pid, 0) + 1
        self._sample_counts[pid] = k
        vertex = DagVertex(pid, k, value)
        self._preds[vertex] = frozenset(self._preds)
        self._snapshot = None
        return vertex

    def union(self, other: "SampleDag | SampleDagSnapshot") -> None:
        """Merge a gossiped DAG into this one (``G_p := G_p u G_q``); a vertex
        two processes built independently gets both in-edge sets."""
        incoming = other.preds if isinstance(other, SampleDagSnapshot) else other._preds
        preds = self._preds
        changed = False
        for vertex, theirs in incoming.items():
            mine = preds.get(vertex)
            if mine is None:
                preds[vertex] = theirs
                if vertex.k > self._sample_counts.get(vertex.pid, 0):
                    self._sample_counts[vertex.pid] = vertex.k
            elif mine is theirs or theirs <= mine:
                continue
            else:
                preds[vertex] = mine | theirs
            changed = True
        if changed:
            self._snapshot = None

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._preds)

    def __contains__(self, vertex: DagVertex) -> bool:
        return vertex in self._preds

    def vertices(self) -> list[DagVertex]:
        """All vertices in deterministic order."""
        return sorted(self._preds, key=DagVertex.sort_key)

    def successors(self, vertex: DagVertex) -> list[DagVertex]:
        """Vertices reachable by one edge, in deterministic order."""
        heads = (w for w, preds in self._preds.items() if vertex in preds)
        return sorted(heads, key=DagVertex.sort_key)

    def roots(self) -> list[DagVertex]:
        """Vertices with no incoming edge, in deterministic order."""
        roots = (v for v, preds in self._preds.items() if not preds)
        return sorted(roots, key=DagVertex.sort_key)

    def has_edge(self, a: DagVertex, b: DagVertex) -> bool:
        return a in self._preds.get(b, ())

    def pids(self) -> set[ProcessId]:
        """Processes with at least one sample."""
        return set(self._sample_counts)

    def samples_of(self, pid: ProcessId) -> list[DagVertex]:
        """The samples of one process, ordered by query index."""
        return sorted((v for v in self._preds if v.pid == pid), key=lambda v: v.k)

    def shape(self) -> tuple:
        """The DAG up to a strictly increasing relabelling of query indices:
        per vertex, in order, ``(pid, rank of k, value, in-neighbours' places)``.
        """
        ordered = self.vertices()  # rank order is k order: the same sort
        ranks = {k: rank for rank, k in enumerate(sorted({v.k for v in ordered}))}
        place = {v: i for i, v in enumerate(ordered)}.__getitem__
        return tuple(
            (v.pid, ranks[v.k], v.value, frozenset(map(place, self._preds[v])))
            for v in ordered
        )

    # -- structural checks (used by tests) ------------------------------------------

    def is_transitively_closed(self) -> bool:
        """Property (3): an edge ``a -> b`` carries every edge into ``a``."""
        preds = self._preds
        return all(preds[a] <= into_b for into_b in preds.values() for a in into_b)

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
        sub = SampleDag()
        if not self._preds:
            return sub
        cutoff = max(v.k for v in self._preds) - window
        keep = frozenset(v for v in self._preds if v.k > cutoff)
        sub._preds = {v: self._preds[v] & keep for v in keep}
        for v in keep:
            if v.k > sub._sample_counts.get(v.pid, 0):
                sub._sample_counts[v.pid] = v.k
        return sub

    def snapshot(self) -> "SampleDagSnapshot":
        """An immutable copy suitable for gossiping (shared until the DAG
        next changes: equal DAGs gossip and compare as one object)."""
        if self._snapshot is None:
            self._snapshot = SampleDagSnapshot(dict(self._preds))
        return self._snapshot


@dataclass(frozen=True)
class SampleDagSnapshot:
    """Frozen DAG for the wire: a copy of the in-edge map that nothing
    mutates, holding the sender's own frozensets."""

    preds: dict[DagVertex, frozenset[DagVertex]]
