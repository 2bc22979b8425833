"""Committed-prefix indications (paper, Section 7).

The paper notes that eventually consistent systems often *indicate* when a
prefix of operations is committed — no longer subject to change — e.g. during
sufficiently long stable periods. This layer sits between a broadcast layer
and its consumer (e.g. :class:`~repro.replication.replica.ReplicaLayer`):

- it passes ``("deliver", seq)`` events through unchanged;
- it periodically gossips digests of every prefix of its current sequence;
- when ``quorum`` processes (by default: all) have reported an identical
  digest for some prefix length, that prefix is flagged committed:
  ``("committed", length)`` is emitted, with lengths monotone increasing.

With ``quorum = n`` and no crashes the committed prefix is genuinely stable
once Omega stabilizes; with smaller quorums the indication is best-effort —
``commit_violations`` counts adoptions that contradict a previously committed
prefix, and the experiments measure when it stays zero.

Per-prefix digests make report size linear in the sequence length, which is
fine at simulation scale and keeps the detection logic transparent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.messages import AppMessage
from repro.sim.stack import Layer, LayerContext
from repro.sim.types import ProcessId, stable_hash


@dataclass(frozen=True)
class PrefixReport:
    """Gossiped digests: ``digests[k]`` covers the prefix of length ``k``."""

    digests: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.digests) - 1

    def digest_at(self, length: int) -> int | None:
        if 0 <= length < len(self.digests):
            return self.digests[length]
        return None


def prefix_digest(sequence: tuple[AppMessage, ...], length: int) -> int:
    """A deterministic digest of the first ``length`` message identities."""
    return stable_hash("prefix", tuple(m.uid for m in sequence[:length]))


def all_prefix_digests(sequence: tuple[AppMessage, ...]) -> tuple[int, ...]:
    """Digests of every prefix, lengths ``0..len(sequence)``."""
    digests = []
    acc = stable_hash("prefix-chain")
    digests.append(acc)
    for message in sequence:
        acc = stable_hash(acc, message.uid)
        digests.append(acc)
    return tuple(digests)


class CommittedPrefixLayer(Layer):
    """Commit indication by digest gossip."""

    name = "committed-prefix"

    def __init__(self, *, quorum: int | None = None, gossip_every: int = 2) -> None:
        #: None means "all processes" (resolved at attach time).
        self._quorum_param = quorum
        self.quorum = 0
        if gossip_every < 1:
            raise ValueError("gossip_every must be >= 1")
        #: gossip a report every this many local timeouts (all-to-all gossip
        #: on every timeout floods slower consumers).
        self.gossip_every = gossip_every
        self._timeouts_seen = 0
        self.sequence: tuple[AppMessage, ...] = ()
        self._my_digests: tuple[int, ...] = all_prefix_digests(())
        #: per-process latest report (self included).
        self.reports: dict[ProcessId, PrefixReport] = {}
        self.committed_length = 0
        self._committed_digest: int | None = None
        #: adoptions that rewrote an already-committed prefix (should be 0
        #: under an honest quorum choice).
        self.commit_violations = 0

    def attach(self, pid: ProcessId, n: int) -> None:
        super().attach(pid, n)
        self.quorum = self._quorum_param if self._quorum_param is not None else n
        if not 1 <= self.quorum <= n:
            raise ValueError(f"quorum must be in [1, {n}], got {self.quorum}")

    # -- plumbing ------------------------------------------------------------------

    def on_call(self, ctx: LayerContext, request: Any) -> None:
        ctx.call_lower(request)  # transparent for broadcasts

    def on_input(self, ctx: LayerContext, value: Any) -> None:
        self.on_call(ctx, value)

    def on_lower_event(self, ctx: LayerContext, event: Any) -> None:
        if isinstance(event, tuple) and event and event[0] == "deliver":
            self.sequence = event[1]
            self._my_digests = all_prefix_digests(self.sequence)
            if (
                self._committed_digest is not None
                and self._digest_of_mine(self.committed_length)
                != self._committed_digest
            ):
                self.commit_violations += 1
                # Re-anchor on the new reality so later commits stay meaningful.
                self._committed_digest = self._digest_of_mine(self.committed_length)
            self.reports[ctx.pid] = PrefixReport(self._my_digests)
        ctx.emit_upper(event)

    def _digest_of_mine(self, length: int) -> int | None:
        if 0 <= length < len(self._my_digests):
            return self._my_digests[length]
        return None

    # -- gossip / commit detection ------------------------------------------------------

    def on_timeout(self, ctx: LayerContext) -> None:
        self._timeouts_seen += 1
        report = PrefixReport(self._my_digests)
        self.reports[ctx.pid] = report
        if self._timeouts_seen % self.gossip_every == 0:
            ctx.send_all(report, include_self=False)
        self._recompute_commit(ctx)

    def on_message(self, ctx: LayerContext, sender: ProcessId, payload: Any) -> None:
        if isinstance(payload, PrefixReport):
            self.reports[sender] = payload
            self._recompute_commit(ctx)

    def _recompute_commit(self, ctx: LayerContext) -> None:
        best = self.committed_length
        for length in range(len(self.sequence), self.committed_length, -1):
            digest = self._digest_of_mine(length)
            agreeing = sum(
                1
                for report in self.reports.values()
                if report.digest_at(length) == digest
            )
            if agreeing >= self.quorum:
                best = length
                break
        if best > self.committed_length:
            self.committed_length = best
            self._committed_digest = self._digest_of_mine(best)
            ctx.emit_upper(("committed", best))
