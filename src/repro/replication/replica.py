"""A replicated-state-machine layer over a broadcast layer.

``ReplicaLayer`` turns any layer with the (E)TOB interface — ``("broadcast",
payload)`` calls, ``("deliver", seq)`` events — into a replicated service:

- ``("invoke", command)`` inputs broadcast the command (an explicit command
  id may be supplied as a third element — used by the client-serving layer);
- every delivered sequence is folded through the state machine; execution is
  *speculative*: if the newly delivered sequence is not an extension of the
  previous one (possible before ETOB stabilizes), the replica rolls back to
  the longest common prefix and re-executes the rest;
- responses to locally invoked commands are emitted when the command first
  executes — ``("response", cmd_id, result)`` — and re-emitted as
  ``("revised-response", cmd_id, result)`` if a rollback changed the result.

Over a strong TOB layer the delivered sequence only ever grows, so no
rollback or revision ever happens — the experiments assert exactly that.

Outputs: ``("response", ...)``, ``("revised-response", ...)``,
``("applied", length)`` after each adoption, plus pass-through of the
broadcast layer's ``("deliver", seq)`` events for the checkers.
"""

from __future__ import annotations

from typing import Any

from repro.core.messages import AppMessage
from repro.replication.state_machine import StateMachine
from repro.sim.errors import ProtocolError
from repro.sim.stack import Layer, LayerContext
from repro.sim.types import ProcessId


class ReplicaLayer(Layer):
    """One replica of a deterministic service."""

    name = "replica"

    def __init__(self, machine: StateMachine) -> None:
        self.machine = machine
        self._next_cmd = 0
        #: the sequence of commands currently applied (mirror of d_i).
        self.applied_seq: tuple[AppMessage, ...] = ()
        #: states[i] is the state after applying the first i commands.
        self._states: list[Any] = [machine.initial()]
        #: results[i] is the result of command i (0-based) of applied_seq.
        self._results: list[Any] = []
        #: command id -> last emitted result, for local invocations.
        self._responses: dict[Any, Any] = {}
        #: command ids this replica is responsible for answering.
        self._pending_ids: set[Any] = set()
        #: diagnostics
        self.rollbacks = 0
        self.reexecuted_commands = 0

    # -- public accessors ----------------------------------------------------------

    @property
    def state(self) -> Any:
        """The current (speculative) service state."""
        return self._states[-1]

    def state_at(self, prefix_length: int) -> Any:
        """The state after the first ``prefix_length`` applied commands."""
        return self._states[prefix_length]

    # -- invocation ---------------------------------------------------------------

    def on_input(self, ctx: LayerContext, value: Any) -> None:
        if not (isinstance(value, tuple) and value and value[0] == "invoke"):
            raise ProtocolError(f"replica cannot handle input {value!r}")
        command = value[1]
        if len(value) >= 3:
            cmd_id = value[2]
        else:
            cmd_id = (ctx.pid, self._next_cmd)
            self._next_cmd += 1
        self._pending_ids.add(cmd_id)
        ctx.call_lower(("broadcast", ("cmd", cmd_id, command)))
        ctx.output(("invoked", cmd_id, command))

    def on_call(self, ctx: LayerContext, request: Any) -> None:
        # The client-serving layer invokes commands through calls.
        self.on_input(ctx, request)

    def on_message(self, ctx: LayerContext, sender: ProcessId, payload: Any) -> None:
        pass  # all communication happens in the broadcast layer below

    # -- delivery / execution -------------------------------------------------------

    def on_lower_event(self, ctx: LayerContext, event: Any) -> None:
        if not (isinstance(event, tuple) and event):
            return
        if event[0] == "deliver":
            self._adopt(ctx, event[1])
            ctx.emit_upper(("deliver", event[1]))
        # other events (broadcast-uid, committed, ...) pass through upward
        elif event[0] in ("broadcast-uid", "committed"):
            ctx.emit_upper(event)

    def _adopt(self, ctx: LayerContext, sequence: tuple[AppMessage, ...]) -> None:
        # Longest common prefix with what we already executed: all of it
        # whenever d_i grew by extension (one tuple comparison; messages are
        # equal by uid), found uid by uid only on a real divergence.
        applied = self.applied_seq
        keep = len(applied)
        if sequence[:keep] != applied:
            keep = 0
            for ours, theirs in zip(applied, sequence):
                if ours.uid != theirs.uid:
                    break
                keep += 1
        if keep < len(applied):
            self.rollbacks += 1
        # Truncate to the common prefix, then execute the new suffix.
        del self._states[keep + 1 :]
        del self._results[keep:]
        try:
            for message in sequence[keep:]:
                payload = message.payload
                if not (
                    isinstance(payload, tuple) and payload and payload[0] == "cmd"
                ):
                    raise ProtocolError(f"replica delivered non-command {payload!r}")
                __, cmd_id, command = payload
                state, result = self.machine.apply(self._states[-1], command)
                self._states.append(state)
                self._results.append(result)
                self.reexecuted_commands += 1
                if cmd_id in self._pending_ids:
                    previous = self._responses.get(cmd_id, _UNSET)
                    if previous is _UNSET:
                        self._responses[cmd_id] = result
                        ctx.emit_upper(("response", cmd_id, result))
                    elif previous != result:
                        self._responses[cmd_id] = result
                        ctx.emit_upper(("revised-response", cmd_id, result))
        finally:
            # One result per executed command, so this is exactly what ran
            # even if a malformed command stopped the loop.
            self.applied_seq = applied[:keep] + tuple(
                sequence[keep : len(self._results)]
            )
        ctx.output(("applied", len(self.applied_seq)))


class _Unset:
    __slots__ = ()


_UNSET = _Unset()
