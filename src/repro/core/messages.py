"""Application-level messages broadcast through (E)TOB.

The paper assumes broadcast messages are distinct; we enforce that with
:class:`MessageId`, a (sender, local sequence number) pair. An
:class:`AppMessage` carries its payload and its direct causal dependencies
``C(m)`` — the second argument of the paper's ``broadcastETOB(m, C(m))``.

Identity, equality and hashing are by ``uid`` only, so payloads need not be
hashable and graph/sequence algebra stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple


class MessageId(NamedTuple):
    """Globally unique message identity: broadcaster id + local counter.

    A named tuple, so hashing, equality and ordering — the inner loop of
    every graph, batch and checker — run in C; ``hash(MessageId(s, k))`` is
    ``hash((s, k))``.
    """

    sender: int
    seq: int

    def __repr__(self) -> str:
        return f"m{self.sender}.{self.seq}"


@dataclass(frozen=True, eq=False)
class AppMessage:
    """A broadcast message with explicit causal dependencies."""

    uid: MessageId
    payload: Any = None
    deps: frozenset[MessageId] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.uid in self.deps:
            raise ValueError(f"message {self.uid} cannot depend on itself")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AppMessage):
            return NotImplemented
        return self.uid == other.uid

    def __hash__(self) -> int:
        return hash(self.uid)

    def __repr__(self) -> str:
        return f"AppMessage({self.uid}, {self.payload!r})"


def uids(messages: Iterable[AppMessage]) -> tuple[MessageId, ...]:
    """The identities of a message sequence, in order."""
    return tuple(m.uid for m in messages)


def payloads(messages: Iterable[AppMessage]) -> tuple[Any, ...]:
    """The payloads of a message sequence, in order."""
    return tuple(m.payload for m in messages)


def in_uid_order(index: dict[MessageId, AppMessage]) -> tuple[AppMessage, ...]:
    """The messages of a uid-keyed index, sorted by uid."""
    return tuple(map(index.__getitem__, sorted(index)))
