"""Tests for the CHT sample DAG: construction, union, structural properties."""

from repro.cht import DagVertex, SampleDag


class TestConstruction:
    def test_add_sample_assigns_increasing_k(self):
        dag = SampleDag()
        v1 = dag.add_sample(0, "a")
        v2 = dag.add_sample(0, "b")
        assert (v1.k, v2.k) == (1, 2)
        assert dag.has_edge(v1, v2)

    def test_edges_from_all_existing_vertices(self):
        dag = SampleDag()
        v1 = dag.add_sample(0, "a")
        v2 = dag.add_sample(1, "b")
        v3 = dag.add_sample(0, "c")
        assert dag.has_edge(v1, v3) and dag.has_edge(v2, v3)
        assert dag.has_edge(v1, v2)
        assert not dag.has_edge(v3, v1)

    def test_roots(self):
        dag = SampleDag()
        v1 = dag.add_sample(0, "a")
        dag.add_sample(1, "b")
        assert dag.roots() == [v1]

    def test_transitive_closure_property(self):
        dag = SampleDag()
        for i in range(6):
            dag.add_sample(i % 3, i)
        assert dag.is_transitively_closed()

    def test_query_order_property(self):
        dag = SampleDag()
        for i in range(8):
            dag.add_sample(i % 2, i)
        assert dag.respects_query_order()

    def test_samples_of(self):
        dag = SampleDag()
        dag.add_sample(0, "a")
        dag.add_sample(1, "b")
        dag.add_sample(0, "c")
        ks = [v.k for v in dag.samples_of(0)]
        assert ks == [1, 2]


class TestUnion:
    def test_union_via_snapshot_roundtrip(self):
        d1, d2 = SampleDag(), SampleDag()
        d1.add_sample(0, "x")
        d2.add_sample(1, "y")
        d2.add_sample(1, "z")
        d1.union(d2.snapshot())
        assert len(d1) == 3
        # Closed: the two DAGs share no vertex, and each one is closed.
        assert d1.is_transitively_closed()
        assert {v.pid for v in d1.vertices()} == {0, 1}

    def test_union_preserves_closure_in_gossip_pattern(self):
        # Simulate the real gossip pattern: sample locally, exchange, merge.
        d1, d2 = SampleDag(), SampleDag()
        for round_ in range(4):
            d1.add_sample(0, round_)
            d2.add_sample(1, round_)
            d1.union(d2.snapshot())
            d2.union(d1.snapshot())
            d1.add_sample(0, ("post", round_))
            d2.add_sample(1, ("post", round_))
        assert d1.is_transitively_closed()
        assert d2.is_transitively_closed()
        assert d1.respects_query_order()

    def test_converged_dags_are_equal(self):
        d1, d2 = SampleDag(), SampleDag()
        d1.add_sample(0, "a")
        d2.add_sample(1, "b")
        d1.union(d2.snapshot())
        d2.union(d1.snapshot())
        assert set(d1.vertices()) == set(d2.vertices())

    def test_union_is_idempotent(self):
        d1 = SampleDag()
        d1.add_sample(0, "a")
        snap = d1.snapshot()
        d1.union(snap)
        d1.union(snap)
        assert len(d1) == 1

    def test_snapshot_is_kept_until_the_dag_changes(self):
        d1, d2 = SampleDag(), SampleDag()
        d1.add_sample(0, "a")
        d2.add_sample(1, "b")
        snap = d1.snapshot()
        assert d1.snapshot() is snap
        d1.union(snap)  # nothing new: same view
        assert d1.snapshot() is snap
        d1.union(d2.snapshot())  # a new vertex
        merged = d1.snapshot()
        assert merged is not snap and len(merged.preds) == 2
        d1.union(d2)  # the same DAG again, as a SampleDag
        assert d1.snapshot() is merged
        d2.add_sample(1, "c")  # an edge b -> c arrives with its vertex
        d1.union(d2.snapshot())
        assert d1.snapshot() is not merged
        latest = d1.snapshot()
        d1.add_sample(0, "d")
        assert d1.snapshot() != latest
        # A kept view is the view a rebuild would give.
        rebuilt = SampleDag()
        rebuilt.union(d1)
        assert rebuilt.snapshot() == d1.snapshot()

    def test_cached_sort_key_is_not_part_of_the_vertex(self):
        vertex = DagVertex(1, 2, "x")
        assert vertex.sort_key() == (2, 1, "'x'")
        assert vertex.sort_key() is vertex.sort_key()
        assert repr(vertex) == "DagVertex(pid=1, k=2, value='x')"
        assert vertex == DagVertex(1, 2, "x") and hash(vertex) == hash(DagVertex(1, 2, "x"))

    def test_sample_counts_continue_after_union(self):
        d1, d2 = SampleDag(), SampleDag()
        d2.add_sample(0, "other")  # p0 sampled elsewhere?! — same pid space
        d1.union(d2.snapshot())
        v = d1.add_sample(0, "mine")
        assert v.k == 2  # continues after the merged count


class TestWindow:
    def test_windowed_keeps_recent_global_suffix(self):
        dag = SampleDag()
        for i in range(10):
            dag.add_sample(0, i)
            dag.add_sample(1, i)
        sub = dag.windowed(3)
        assert all(v.k > 7 for v in sub.vertices())
        assert {v.pid for v in sub.vertices()} == {0, 1}

    def test_windowed_drops_stalled_process(self):
        dag = SampleDag()
        dag.add_sample(0, "early")
        dag.add_sample(0, "early2")
        for i in range(10):
            dag.add_sample(1, i)
        sub = dag.windowed(4)
        assert {v.pid for v in sub.vertices()} == {1}

    def test_windowed_keeps_edges_among_survivors(self):
        dag = SampleDag()
        for i in range(6):
            dag.add_sample(i % 2, i)
        sub = dag.windowed(2)
        vertices = sub.vertices()
        assert len(vertices) >= 2
        ordered = sorted(vertices, key=DagVertex.sort_key)
        assert sub.has_edge(ordered[0], ordered[-1]) or sub.has_edge(
            ordered[-1], ordered[0]
        ) or len({v.k for v in vertices}) == 1

    def test_windowed_rejects_bad_window(self):
        import pytest

        with pytest.raises(ValueError):
            SampleDag().windowed(0)

    def test_windowed_of_empty(self):
        assert len(SampleDag().windowed(5)) == 0
