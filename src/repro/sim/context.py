"""Per-step execution context handed to process automata.

A step in the paper is ``(p, m, d, A)``: process ``p`` receives a message
``m`` (possibly the empty message), queries its failure detector obtaining
``d``, transitions, and sends messages / produces outputs. The
:class:`Context` exposes exactly those capabilities: the current time, the
detector value ``d``, and buffered ``send`` / ``output`` effects that the
scheduler flushes atomically at the end of the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.sim.types import ProcessId, Time, validate_process_id

#: Outbox sentinels for batched broadcasts: the scheduler expands an entry
#: ``(BROADCAST_ALL, payload)`` / ``(BROADCAST_OTHERS, payload)`` through
#: ``Network.send_all`` in one pass instead of ``n`` point-to-point sends.
#: Negative so they can never collide with a validated process id.
BROADCAST_ALL: ProcessId = -1
BROADCAST_OTHERS: ProcessId = -2


@dataclass(slots=True)
class Context:
    """Capabilities available to a process during a single step.

    A slotted class: nothing may add an attribute to a context. The C tick
    loop stores ``pid``, ``time`` and ``fd_value`` straight into their
    slots, so a subclass it is handed must keep all three plain slots (a
    property in their place is refused by name; a subclass the loop never
    sees, like the CHT replay sandbox's, may define one).

    The three effect buffers (``_outbox``, ``_outputs``, ``_log``) are one
    list each for the context's whole lifetime: the scheduler's loops, the
    C tick loop and the ``drain_*`` accessors consume a step's entries and
    empty each list in place. After a step all three are empty; a handler
    must not rely on their identity, and nothing may rebind them.
    """

    pid: ProcessId
    n: int
    time: Time
    fd_value: Any = None
    _outbox: list[tuple[ProcessId, Any]] = field(default_factory=list)
    _outputs: list[Any] = field(default_factory=list)
    _log: list[Any] = field(default_factory=list)

    # -- effects -----------------------------------------------------------

    def send(self, receiver: ProcessId, payload: Any) -> None:
        """Buffer a point-to-point message to ``receiver``."""
        validate_process_id(receiver, self.n)
        self._outbox.append((receiver, payload))

    def send_all(self, payload: Any, *, include_self: bool = True) -> None:
        """Buffer a broadcast to every process (the paper's ``Send``).

        The paper's ``Send(message)`` "sends message to all processes
        (including p_i)" (Algorithm 1); we default to including the sender.
        Buffered as a single sentinel entry; the scheduler expands it through
        the network's batched ``send_all`` (receivers in ascending order,
        exactly as ``n`` individual sends would have gone out).
        """
        self._outbox.append(
            (BROADCAST_ALL if include_self else BROADCAST_OTHERS, payload)
        )

    def output(self, value: Any) -> None:
        """Record a value in the output history ``H_O`` (visible to the app)."""
        self._outputs.append(value)

    def log(self, event: Any) -> None:
        """Record a diagnostic event in the simulation trace (not part of H_O)."""
        self._log.append(event)

    # -- failure detector convenience ---------------------------------------

    def omega(self) -> ProcessId:
        """The Omega output of this step's detector value.

        Works with a bare Omega detector (whose sample *is* a process id) and
        with composite detectors (whose sample is a mapping with an ``omega``
        entry).
        """
        return _extract(self.fd_value, "omega")

    def sigma(self) -> frozenset[ProcessId]:
        """The Sigma (quorum) output of this step's detector value."""
        return _extract(self.fd_value, "sigma")

    def detector(self, name: str) -> Any:
        """A named component of a composite detector sample."""
        return _extract(self.fd_value, name)

    # -- scheduler-side accessors -------------------------------------------

    def drain_outbox(self) -> list[tuple[ProcessId, Any]]:
        """Remove and return buffered sends (scheduler use).

        Broadcasts appear as single sentinel entries (``BROADCAST_ALL`` /
        ``BROADCAST_OTHERS`` receivers); consumers that need one entry per
        receiver should run the result through :func:`expand_sends`.
        """
        outbox = self._outbox[:]
        self._outbox.clear()
        return outbox

    def drain_outputs(self) -> list[Any]:
        """Remove and return buffered outputs (scheduler use)."""
        outputs = self._outputs[:]
        self._outputs.clear()
        return outputs

    def drain_log(self) -> list[Any]:
        """Remove and return buffered diagnostic events (scheduler use)."""
        log = self._log[:]
        self._log.clear()
        return log


def expand_sends(
    outbox: list[tuple[ProcessId, Any]], sender: ProcessId, n: int
):
    """Expand broadcast sentinels into per-receiver ``(receiver, payload)``.

    Receivers come out in ascending order with the payload shared — the same
    envelopes, in the same order, the scheduler's batched
    ``Network.send_all`` path produces.
    """
    for receiver, payload in outbox:
        if receiver >= 0:
            yield receiver, payload
        else:
            include_self = receiver == BROADCAST_ALL
            for target in range(n):
                if target == sender and not include_self:
                    continue
                yield target, payload


def _extract(fd_value: Any, name: str) -> Any:
    """Pull the component ``name`` out of a detector sample."""
    if isinstance(fd_value, dict):
        if name not in fd_value:
            raise KeyError(
                f"composite detector sample has no {name!r} component: "
                f"{sorted(fd_value)}"
            )
        return fd_value[name]
    if fd_value is None:
        raise ValueError(
            f"no failure detector attached, cannot read {name!r} output"
        )
    return fd_value
