"""Differential test of the sample DAG against an edge-set reference.

``SampleDag`` stores each vertex's in-edges once, as the frozenset its owner
fixed when it took the sample, and shares that object with every snapshot
and every DAG it is merged into. The reference below is the plain
construction it replaced: a vertex set plus a successor set per vertex,
``add_sample`` adding one edge per known vertex and ``union`` merging edge
sets. Random interleavings of ``add_sample`` and ``union`` among 2-4 DAGs
run on both, and every query must agree — including when two DAGs build the
same process's sample independently, so a union has to merge two different
in-edge sets of one vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from hypothesis import example, given, settings, strategies as st

from repro.cht import DagVertex, SampleDag


class ReferenceDag:
    """The edge-set sample DAG: every edge stored in its tail's successor set."""

    def __init__(self) -> None:
        self._vertices: set[DagVertex] = set()
        self._succ: dict[DagVertex, set[DagVertex]] = {}
        self._sample_counts: dict[int, int] = {}
        self._snapshot: ReferenceSnapshot | None = None

    def add_sample(self, pid: int, value: Any) -> DagVertex:
        k = self._sample_counts.get(pid, 0) + 1
        self._sample_counts[pid] = k
        vertex = DagVertex(pid, k, value)
        for existing in self._vertices:
            self._succ.setdefault(existing, set()).add(vertex)
        self._vertices.add(vertex)
        self._succ.setdefault(vertex, set())
        self._snapshot = None
        return vertex

    def union(self, other: "ReferenceDag | ReferenceSnapshot") -> None:
        if isinstance(other, ReferenceDag):
            vertices, edges = other._vertices, other._succ.items()
        else:
            vertices, edges = other.vertices, other.edges
        size = self._size()
        self._vertices.update(vertices)
        for vertex, successors in edges:
            self._succ.setdefault(vertex, set()).update(successors)
        for vertex in vertices:
            self._succ.setdefault(vertex, set())
            if vertex.k > self._sample_counts.get(vertex.pid, 0):
                self._sample_counts[vertex.pid] = vertex.k
        if size != self._size():  # sets only grow: same counts, same DAG
            self._snapshot = None

    def _size(self) -> tuple[int, int, int]:
        return len(self._vertices), len(self._succ), sum(map(len, self._succ.values()))

    def __len__(self) -> int:
        return len(self._vertices)

    def vertices(self) -> list[DagVertex]:
        return sorted(self._vertices, key=DagVertex.sort_key)

    def successors(self, vertex: DagVertex) -> list[DagVertex]:
        return sorted(self._succ.get(vertex, ()), key=DagVertex.sort_key)

    def roots(self) -> list[DagVertex]:
        with_incoming: set[DagVertex] = set()
        for successors in self._succ.values():
            with_incoming |= successors
        return sorted(self._vertices - with_incoming, key=DagVertex.sort_key)

    def has_edge(self, a: DagVertex, b: DagVertex) -> bool:
        return b in self._succ.get(a, ())

    def pids(self) -> set[int]:
        return set(self._sample_counts)

    def samples_of(self, pid: int) -> list[DagVertex]:
        return sorted((v for v in self._vertices if v.pid == pid), key=lambda v: v.k)

    def is_transitively_closed(self) -> bool:
        for a in self._vertices:
            for b in self._succ.get(a, ()):
                if not self._succ.get(b, set()) <= self._succ.get(a, set()):
                    return False
        return True

    def respects_query_order(self) -> bool:
        for pid in self.pids():
            samples = self.samples_of(pid)
            for earlier, later in zip(samples, samples[1:]):
                if not self.has_edge(earlier, later):
                    return False
        return True

    def windowed(self, window: int) -> "ReferenceDag":
        if not self._vertices:
            return ReferenceDag()
        cutoff = max(v.k for v in self._vertices) - window
        keep = {v for v in self._vertices if v.k > cutoff}
        sub = ReferenceDag()
        sub._vertices = set(keep)
        sub._succ = {v: {w for w in self._succ.get(v, ()) if w in keep} for v in keep}
        sub._sample_counts = {
            pid: max(v.k for v in keep if v.pid == pid) for pid in {v.pid for v in keep}
        }
        return sub

    def snapshot(self) -> "ReferenceSnapshot":
        if self._snapshot is None:
            self._snapshot = ReferenceSnapshot(
                vertices=tuple(self.vertices()),
                edges=tuple(
                    (v, tuple(sorted(self._succ[v], key=DagVertex.sort_key)))
                    for v in sorted(self._succ, key=DagVertex.sort_key)
                ),
            )
        return self._snapshot


@dataclass(frozen=True)
class ReferenceSnapshot:
    vertices: tuple[DagVertex, ...]
    edges: tuple[tuple[DagVertex, tuple[DagVertex, ...]], ...]


def view(dag: "SampleDag | ReferenceDag") -> dict:
    """Every query of the DAG's public surface, as plain values."""
    vertices = dag.vertices()
    return {
        "vertices": vertices,
        "len": len(dag),
        "edges": [(a, b) for a in vertices for b in vertices if dag.has_edge(a, b)],
        "successors": [dag.successors(v) for v in vertices],
        "roots": dag.roots(),
        "pids": dag.pids(),
        # One process's k-th sample built twice is a tie samples_of leaves
        # in set order: compare the lists' k order and their members.
        "samples": {
            pid: ([v.k for v in samples], sorted(samples, key=DagVertex.sort_key))
            for pid in dag.pids()
            for samples in [dag.samples_of(pid)]
        },
        "closed": dag.is_transitively_closed(),
        "query order": dag.respects_query_order(),
    }


#: ("sample", dag, pid, value) or ("union", into, from, via, times). The pid
#: is free, not the DAG's own: two DAGs may then build the same vertex.
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("sample"),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
        ),
        st.tuples(
            st.just("union"),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.sampled_from(("snapshot", "dag")),
            st.integers(min_value=1, max_value=2),
        ),
    ),
    max_size=24,
)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=4), OPERATIONS)
# test_sample_counts_continue_after_union: p0 sampled elsewhere first.
@example(2, [("sample", 1, 0, 0), ("union", 0, 1, "snapshot", 1), ("sample", 0, 0, 1)])
# one vertex built twice with different in-edges, then merged both ways.
@example(
    2,
    [
        ("sample", 0, 1, 0), ("sample", 0, 0, 0), ("sample", 1, 0, 0),
        ("union", 1, 0, "dag", 2), ("union", 0, 1, "snapshot", 1),
    ],
)
def test_random_interleavings_match_the_edge_set_reference(count, operations):
    dags = [SampleDag() for __ in range(count)]
    refs = [ReferenceDag() for __ in range(count)]
    for operation in operations:
        kept = [dag.snapshot() for dag in dags]
        kept_refs = [ref.snapshot() for ref in refs]
        if operation[0] == "sample":
            __, index, pid, value = operation
            index %= count
            assert dags[index].add_sample(pid, value) == refs[index].add_sample(pid, value)
        else:
            __, into, source, via, times = operation
            into, source = into % count, source % count
            for __ in range(times):
                if via == "dag":
                    dags[into].union(dags[source])
                    refs[into].union(refs[source])
                else:
                    dags[into].union(dags[source].snapshot())
                    refs[into].union(refs[source].snapshot())
        # A snapshot is kept exactly as long as the reference keeps its own.
        for i in range(count):
            assert (dags[i].snapshot() is kept[i]) == (refs[i].snapshot() is kept_refs[i])
    for i in range(count):
        assert view(dags[i]) == view(refs[i])
        for window in (1, 2, 3):
            assert view(dags[i].windowed(window)) == view(refs[i].windowed(window))
        for j in range(count):
            assert (dags[i].snapshot() == dags[j].snapshot()) == (
                refs[i].snapshot() == refs[j].snapshot()
            )
