"""Property-based tests (hypothesis) for the sequence algebra."""

from hypothesis import given
from hypothesis import strategies as st

from sequences import (
    common_prefix_length,
    has_duplicates,
    is_prefix,
    longest_common_prefix,
    one_is_prefix,
    order_consistent,
)

items = st.integers(min_value=0, max_value=20)
seqs = st.lists(items, max_size=12).map(tuple)
unique_seqs = st.lists(items, max_size=12, unique=True).map(tuple)


class TestPrefixProperties:
    @given(seqs)
    def test_every_sequence_is_prefix_of_itself(self, s):
        assert is_prefix(s, s)

    @given(seqs, seqs)
    def test_prefix_iff_concatenation(self, a, b):
        assert is_prefix(a, a + b)
        if b:
            assert is_prefix(a, a + b) and (
                not is_prefix(a + b, a) or len(b) == 0
            )

    @given(seqs, seqs)
    def test_prefix_antisymmetry(self, a, b):
        if is_prefix(a, b) and is_prefix(b, a):
            assert a == b

    @given(seqs, seqs, seqs)
    def test_prefix_transitivity(self, a, b, c):
        if is_prefix(a, b) and is_prefix(b, c):
            assert is_prefix(a, c)

    @given(seqs, seqs)
    def test_longest_common_prefix_is_common_prefix(self, a, b):
        p = longest_common_prefix(a, b)
        assert is_prefix(p, a) and is_prefix(p, b)
        # Maximality: the next elements differ (or one sequence ended).
        if len(p) < len(a) and len(p) < len(b):
            assert a[len(p)] != b[len(p)]

    @given(seqs, seqs)
    def test_lcp_symmetry(self, a, b):
        assert longest_common_prefix(a, b) == longest_common_prefix(b, a)

    @given(st.lists(seqs, min_size=1, max_size=5))
    def test_common_prefix_length_bounded(self, many):
        k = common_prefix_length(many)
        assert 0 <= k <= min(len(s) for s in many)
        first = many[0][:k]
        assert all(tuple(s[:k]) == first for s in many)

    @given(seqs, seqs)
    def test_one_is_prefix_consistency(self, a, b):
        assert one_is_prefix(a, b) == (is_prefix(a, b) or is_prefix(b, a))


class TestOrderConsistency:
    @given(unique_seqs, unique_seqs)
    def test_symmetric(self, a, b):
        assert order_consistent(a, b) == order_consistent(b, a)

    @given(unique_seqs)
    def test_reflexive(self, a):
        assert order_consistent(a, a)

    @given(unique_seqs)
    def test_subsequence_always_consistent(self, a):
        sub = a[::2]
        assert order_consistent(sub, a)
        assert order_consistent(a, sub)

    @given(unique_seqs)
    def test_reversal_inconsistent_when_two_common(self, a):
        if len(a) >= 2:
            assert not order_consistent(a, tuple(reversed(a)))

    @given(unique_seqs, unique_seqs)
    def test_prefix_pairs_consistent(self, a, b):
        if one_is_prefix(a, b):
            assert order_consistent(a, b)


class TestDuplicates:
    @given(unique_seqs)
    def test_unique_has_no_duplicates(self, a):
        assert not has_duplicates(a)

    @given(seqs, items)
    def test_doubling_creates_duplicates(self, a, x):
        assert has_duplicates(a + (x, x))
