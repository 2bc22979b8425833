"""Unit tests for the sequence algebra used by the (E)TOB checkers."""

from sequences import (
    appears_before,
    common_prefix_length,
    has_duplicates,
    index_of,
    is_prefix,
    longest_common_prefix,
    one_is_prefix,
    order_consistent,
)


class TestPrefix:
    def test_empty_is_prefix_of_everything(self):
        assert is_prefix((), (1, 2))
        assert is_prefix((), ())

    def test_proper_prefix(self):
        assert is_prefix((1, 2), (1, 2, 3))
        assert not is_prefix((1, 3), (1, 2, 3))
        assert not is_prefix((1, 2, 3), (1, 2))

    def test_equal_sequences_are_prefixes(self):
        assert is_prefix((1, 2), (1, 2))

    def test_one_is_prefix_symmetry(self):
        assert one_is_prefix((1,), (1, 2))
        assert one_is_prefix((1, 2), (1,))
        assert not one_is_prefix((1, 2), (1, 3))

    def test_longest_common_prefix(self):
        assert longest_common_prefix((1, 2, 3), (1, 2, 9)) == (1, 2)
        assert longest_common_prefix((1,), (2,)) == ()
        assert longest_common_prefix("abc", "abd") == ("a", "b")

    def test_common_prefix_length_many(self):
        assert common_prefix_length([(1, 2, 3), (1, 2), (1, 2, 9)]) == 2
        assert common_prefix_length([]) == 0
        assert common_prefix_length([(5, 6)]) == 2


class TestSearch:
    def test_has_duplicates(self):
        assert has_duplicates((1, 2, 1))
        assert not has_duplicates((1, 2, 3))
        assert not has_duplicates(())

    def test_has_duplicates_unhashable_items(self):
        assert has_duplicates(([1], [2], [1]))
        assert not has_duplicates(([1], [2], {"k": 3}))
        assert has_duplicates((1, [2], 1))  # mixed: the set attempt fails late

    def test_index_of(self):
        assert index_of((5, 6, 7), 6) == 1
        assert index_of((5, 6, 7), 9) is None

    def test_appears_before(self):
        assert appears_before(("a", "b", "c"), "a", "c")
        assert not appears_before(("a", "b", "c"), "c", "a")
        assert not appears_before(("a", "b"), "a", "z")


class TestOrderConsistency:
    def test_disjoint_sequences_consistent(self):
        assert order_consistent((1, 2), (3, 4))

    def test_same_order_consistent(self):
        assert order_consistent((1, 2, 3), (0, 1, 9, 2, 3))

    def test_conflicting_order_detected(self):
        assert not order_consistent((1, 2), (2, 1))
        assert not order_consistent((5, 1, 2), (2, 9, 1))

    def test_prefix_pairs_consistent(self):
        assert order_consistent((1, 2), (1, 2, 3))
        assert order_consistent((1, 2, 3), (1, 2))

    def test_empty_always_consistent(self):
        assert order_consistent((), (1, 2))
        assert order_consistent((1, 2), ())
