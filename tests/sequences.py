"""Sequence algebra: the paper's (E)TOB definitions, written plainly.

The properties are all statements about message sequences: prefixes
(stability), relative order (total order), first occurrences, and absence of
duplicates. These helpers work on arbitrary tuples/lists whose elements
support equality. The monitors of ``repro.properties`` fold the same
definitions incrementally; ``tests/test_monitor_reference.py`` checks them
against these plain forms.
"""

from __future__ import annotations

from typing import Any, Sequence, TypeVar

T = TypeVar("T")


def is_prefix(shorter: Sequence[T], longer: Sequence[T]) -> bool:
    """True iff ``shorter`` is a (not necessarily proper) prefix of ``longer``."""
    if len(shorter) > len(longer):
        return False
    return all(a == b for a, b in zip(shorter, longer))


def one_is_prefix(a: Sequence[T], b: Sequence[T]) -> bool:
    """True iff one of the two sequences is a prefix of the other."""
    return is_prefix(a, b) if len(a) <= len(b) else is_prefix(b, a)


def longest_common_prefix(a: Sequence[T], b: Sequence[T]) -> tuple[T, ...]:
    """The longest common prefix of two sequences."""
    out: list[T] = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return tuple(out)


def common_prefix_length(seqs: Sequence[Sequence[T]]) -> int:
    """Length of the longest prefix shared by all given sequences."""
    if not seqs:
        return 0
    limit = min(len(s) for s in seqs)
    for i in range(limit):
        head = seqs[0][i]
        if any(s[i] != head for s in seqs[1:]):
            return i
    return limit


def has_duplicates(seq: Sequence[Any]) -> bool:
    """True iff some element appears more than once."""
    try:
        return len(set(seq)) != len(seq)
    except TypeError:
        pass  # unhashable items: fall back to pairwise equality
    seen: list[Any] = []
    for item in seq:
        if item in seen:
            return True
        seen.append(item)
    return False


def index_of(seq: Sequence[T], item: T) -> int | None:
    """Index of the first occurrence of ``item``, or None."""
    for i, candidate in enumerate(seq):
        if candidate == item:
            return i
    return None


def appears_before(seq: Sequence[T], first: T, second: T) -> bool:
    """True iff both elements appear and ``first`` strictly precedes ``second``."""
    i = index_of(seq, first)
    j = index_of(seq, second)
    return i is not None and j is not None and i < j


def order_consistent(a: Sequence[T], b: Sequence[T]) -> bool:
    """True iff no pair of common elements appears in opposite orders.

    This is the paper's (E)TOB-Total-order condition applied to one pair of
    delivered sequences.
    """
    positions_b: dict[Any, int] = {}
    for i, item in enumerate(b):
        if item not in positions_b:
            positions_b[item] = i
    last = -1
    for item in a:
        pos = positions_b.get(item)
        if pos is None:
            continue
        if pos < last:
            return False
        last = pos
    return True
