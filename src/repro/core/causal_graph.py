"""The causal dependency graph of Algorithm 5.

Each process maintains a directed graph ``CG`` over broadcast messages whose
edges ``(m', m)`` record that ``m`` causally depends on ``m'``. Because every
:class:`~repro.core.messages.AppMessage` carries its direct dependencies
``C(m)``, the graph *is* its message set — edges are implied — and the
paper's three operations become:

- ``UpdateCG(m, C(m))`` -> :meth:`CausalGraph.add`;
- ``UnionCG(CG_j)`` -> :meth:`CausalGraph.union`;
- ``UpdatePromote()`` -> :meth:`CausalGraph.linearize_extending`: extend the
  current promote sequence to a deterministic topological order of all known
  messages.

Invariant (causal closure): a message may only be added when all its direct
dependencies are present. Broadcast protocols preserve it naturally — a
process only depends on messages it has already seen, and graphs travel
whole — and the property-based tests in ``tests/test_prop_causal_graph.py``
verify that every operation maintains it.

The graph only grows, so its derived views are kept per insertion instead of
recomputed per query: the uid order behind :meth:`CausalGraph.messages`, the
causal frontier, and the last linearization, which
:meth:`CausalGraph.linearize_extending` extends by just the messages added
since when it is handed back as the prefix. ``tests/helpers.py`` keeps the
from-scratch graph as the oracle these are differential-tested against.
"""

from __future__ import annotations

from bisect import insort
from itertools import filterfalse
from operator import itemgetter
from typing import Dict, Iterable, Sequence

from repro.core.messages import AppMessage, MessageId


class LinearizationError(Exception):
    """Raised when no linearization compatible with the constraints exists."""


class CausalGraph:
    """A causally closed set of messages with implied dependency edges."""

    def __init__(self, messages: Iterable[AppMessage] = ()) -> None:
        self._nodes: Dict[MessageId, AppMessage] = {}
        #: every uid, sorted; and the ``messages()`` tuple built from it
        #: (None once an insertion made it stale).
        self._sorted: list[MessageId] = []
        self._snapshot: tuple[AppMessage, ...] | None = ()
        #: uids no known message depends on.
        self._frontier: set[MessageId] = set()
        #: the last ``linearize_extending`` result and the uids added since.
        self._linear: tuple[AppMessage, ...] = ()
        self._unplaced: list[MessageId] = []
        for message in messages:
            self.add(message)

    # -- the paper's operations ------------------------------------------------

    def add(self, message: AppMessage) -> None:
        """``UpdateCG``: insert one message whose dependencies are present."""
        # No comprehension: one over ``self`` would give this frame a
        # closure cell, and Python 3.11 leaks a frame's arguments when
        # allocating one fails.
        missing = list(filterfalse(self._nodes.__contains__, message.deps))
        if missing:
            raise LinearizationError(
                f"cannot add {message.uid}: missing dependencies {missing}"
            )
        existing = self._nodes.get(message.uid)
        if existing is not None and existing.deps != message.deps:
            raise LinearizationError(
                f"conflicting dependency sets for {message.uid}: "
                f"{sorted(existing.deps)} vs {sorted(message.deps)}"
            )
        self._nodes[message.uid] = message
        self._snapshot = None
        if existing is None:
            insort(self._sorted, message.uid)
            # Closure: nothing can depend on a message before it is added.
            self._frontier.difference_update(message.deps)
            self._frontier.add(message.uid)
            self._unplaced.append(message.uid)

    def union(self, other: "CausalGraph | Iterable[AppMessage]") -> None:
        """``UnionCG``: merge another (causally closed) graph into this one."""
        incoming = other._nodes.values() if isinstance(other, CausalGraph) else other
        nodes, known = self._nodes, self._nodes.keys()
        # Insert in dependency order so closure is maintained even while the
        # incoming iterable is unordered. A loop, not a comprehension over
        # ``nodes``: see add.
        pending: dict[MessageId, AppMessage] = {}
        for message in incoming:
            if message.uid not in nodes:
                pending[message.uid] = message
        while pending:
            progressed = False
            for uid in list(pending):
                message = pending[uid]
                if known >= message.deps:
                    self.add(message)
                    del pending[uid]
                    progressed = True
            if not progressed:
                raise LinearizationError(
                    f"incoming graph is not causally closed: stuck on "
                    f"{sorted(pending)}"
                )

    def linearize_extending(
        self, prefix: Sequence[AppMessage] = ()
    ) -> tuple[AppMessage, ...]:
        """``UpdatePromote``: a deterministic topological order of all messages
        that (a) has ``prefix`` as a prefix, (b) contains every message exactly
        once, and (c) respects every dependency edge.

        Ready messages are appended in ``uid`` order, which makes the result a
        pure function of (prefix, message set) — crucial for determinism of
        simulated runs.

        A ``prefix`` that *is* the previous result (the same tuple object, as
        Algorithm 5's ``promote_i`` always is) was validated when it was
        built and stays valid — tuples are immutable and nodes never leave —
        so only the messages added since are placed. Any other prefix is
        validated in full.
        """
        if prefix is self._linear:
            if not self._unplaced:
                return prefix
            # A slice and a sort, not sorted(): Python 3.11's sorted() and
            # list() keep a reference to their argument when allocating the
            # copy's items fails.
            remaining = self._unplaced[:]
            remaining.sort()
        else:
            remaining = self._left_after(prefix)
        self._linear = tuple(prefix) + tuple(self._place(remaining))
        self._unplaced.clear()
        return self._linear

    def _left_after(self, prefix: Sequence[AppMessage]) -> list[MessageId]:
        """Check ``prefix`` against the graph; the sorted uids it leaves."""
        placed: set[MessageId] = set()
        for message in prefix:
            if message.uid not in self._nodes:
                raise LinearizationError(
                    f"prefix message {message.uid} is not in the graph"
                )
            if message.uid in placed:
                raise LinearizationError(f"prefix repeats {message.uid}")
            if any(d not in placed for d in message.deps):
                raise LinearizationError(
                    f"prefix violates causal order at {message.uid}"
                )
            placed.add(message.uid)
        return [uid for uid in self._sorted if uid not in placed]

    def _place(self, remaining: list[MessageId]) -> list[AppMessage]:
        """The messages of ``remaining`` — sorted uids, everything not yet
        placed — in placement order: smallest ready uid first."""
        nodes, known = self._nodes, self._nodes.keys()
        waiting = set(remaining)
        placed: list[AppMessage] = []
        while remaining:
            # ``remaining`` is sorted, so its first ready uid is the smallest.
            for index, uid in enumerate(remaining):
                deps = nodes[uid].deps
                # Ready: every dependency is known and no longer waiting.
                if waiting.isdisjoint(deps) and known >= deps:
                    break
            else:
                raise LinearizationError(
                    f"dependency cycle or missing node among {remaining}"
                )
            placed.append(nodes[uid])
            waiting.discard(uid)
            del remaining[index]
        return placed

    # -- queries -----------------------------------------------------------------

    def __contains__(self, key: object) -> bool:
        if isinstance(key, AppMessage):
            return key.uid in self._nodes
        return key in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self):
        return iter(self._nodes.values())

    def get(self, uid: MessageId) -> AppMessage | None:
        """The message with identity ``uid``, if present."""
        return self._nodes.get(uid)

    def messages(self) -> tuple[AppMessage, ...]:
        """All messages, in uid order (a frozen snapshot safe to send).

        The same tuple object is returned until the next insertion.
        """
        if self._snapshot is None:
            # Built at its exact size: ``tuple(map(...))`` shrinks a guessed
            # one, and Python 3.11 frees a tuple it fails to shrink without
            # releasing its items. ``itemgetter`` of one key returns the
            # bare item, so the graphs of fewer than two messages are
            # built by hand.
            keys = self._sorted
            if len(keys) > 1:
                self._snapshot = itemgetter(*keys)(self._nodes)
            else:
                self._snapshot = (self._nodes[keys[0]],) if keys else ()
        return self._snapshot

    def edges(self) -> set[tuple[MessageId, MessageId]]:
        """All dependency edges ``(m', m)``."""
        return {
            (dep, message.uid)
            for message in self._nodes.values()
            for dep in message.deps
        }

    def frontier(self) -> frozenset[MessageId]:
        """Messages that no other message depends on (the causal frontier).

        Used as the default ``C(m)`` of a new broadcast: depending on the
        frontier transitively captures the sender's entire causal past.
        """
        return frozenset(self._frontier)

    def ancestors(self, uid: MessageId) -> frozenset[MessageId]:
        """The transitive causal past of one message (excluding itself)."""
        if uid not in self._nodes:
            raise KeyError(f"{uid} not in graph")
        seen: set[MessageId] = set()
        stack = list(self._nodes[uid].deps)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._nodes[current].deps)
        return frozenset(seen)

    def causally_precedes(self, first: MessageId, second: MessageId) -> bool:
        """True iff ``first`` is in the transitive causal past of ``second``."""
        return first in self.ancestors(second)

    def validate(self) -> None:
        """Check causal closure and acyclicity; raises on violation."""
        for message in self._nodes.values():
            for dep in message.deps:
                if dep not in self._nodes:
                    raise LinearizationError(
                        f"{message.uid} depends on missing {dep}"
                    )
        # Acyclicity follows from a successful full linearization.
        self.linearize_extending(())

    def copy(self) -> "CausalGraph":
        """An independent copy (messages are immutable and shared)."""
        clone = CausalGraph()
        clone._nodes = dict(self._nodes)
        clone._sorted = list(self._sorted)
        clone._snapshot = self._snapshot
        clone._frontier = set(self._frontier)
        clone._linear = self._linear
        clone._unplaced = list(self._unplaced)
        return clone
