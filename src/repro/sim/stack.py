"""Layered protocol composition.

The paper's transformation algorithms use a sub-protocol as a black box: the
upper protocol invokes operations ("proposeEC_l(v)") and reacts to responses
("On reception of d as response of proposeEC_l"). :class:`ProtocolStack`
realizes this inside one simulated process:

- a stack is an ordered list of :class:`Layer` objects, bottom (index 0) to
  top; each layer has a private message namespace on the wire;
- a layer calls the layer below with :meth:`LayerContext.call_lower` and
  receives asynchronous responses via :meth:`Layer.on_lower_event`;
- a layer reports to the layer above with :meth:`LayerContext.emit_upper`;
  events emitted by the *top* layer become application outputs;
- application inputs go to the top layer; timeouts reach every layer that
  overrides :meth:`Layer.on_timeout` (the others' would be no-ops).

Dispatching is iterative (a FIFO of pending deliveries inside the current
step, each carrying its bound handler), so arbitrarily deep call chains do
not recurse. A dispatch costs only the handler call: the stack keeps one
:class:`LayerContext` per layer, bound to the step context it last saw, and
rebuilds them only when handed a different one. The scheduler reuses one
step context per simulation, so a stack binds once per run; a caller that
builds a fresh context per step (the CHT replay sandbox) rebinds per step.

On the C tick loop (``kernel="compiled-loop"``) a step does not enter the
stack at all: at each run call the loop takes the stack's
:meth:`~ProtocolStack._dispatch_plan` (the layers' bound handlers, their
contexts, the timeout layers, the pending queue and the drain) and does
what :meth:`ProtocolStack.on_message` and :meth:`ProtocolStack.on_timeout`
do itself, calling Python only for a layer's handler and, when something
is pending, :meth:`ProtocolStack._drain`. A subclass that overrides either
method hands no plan and is called as written; the pure-Python kernels call
the methods below. With the extension built, a layer's read of Omega,
``Layer._omega``, is ``_ckernel.layer_omega`` on every kernel: the rule of
:meth:`LayerContext.omega` without a Python frame.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Sequence

from repro.sim._compiled import ckernel as _ckernel
from repro.sim.context import BROADCAST_ALL, BROADCAST_OTHERS, Context
from repro.sim.errors import ConfigurationError, ProtocolError
from repro.sim.process import Process
from repro.sim.types import ProcessId


class LayerContext:
    """Per-layer view of the step context.

    ``n`` is the size of the stack's protocol group: the simulation's
    process count unless the stack was built with ``group_size`` — then the
    layers see only the group (quorum arithmetic, rotating-coordinator
    indexing and ``send_all`` all scale to the group, not to whatever client
    processes share the simulation).

    A context copies what dispatch needs from its stack — the layer list,
    the pending queue, the group's receivers and the neighbouring layers'
    bound handlers — and keeps no reference to the stack itself: the stack
    caches its contexts, and a back-pointer would make every finished
    simulation garbage only the cyclic collector can free.
    """

    def __init__(self, stack: "ProtocolStack", base: Context, index: int) -> None:
        self._base = base
        self.index = index
        layers = stack.layers
        self._layers = layers
        self._pending = stack._pending
        group = stack.group_size
        self.n = group if group is not None else base.n
        receivers = stack._group_receivers
        self._others, self._everyone = receivers or (None, None)
        #: the bound handlers a call down / an event up is queued with
        #: (None at the bottom / at the top)
        self._lower_call: Callable[..., None] | None = (
            layers[index - 1].on_call if index > 0 else None
        )
        self._upper_event: Callable[..., None] | None = (
            layers[index + 1].on_lower_event if index < len(layers) - 1 else None
        )

    # -- mirrored step facts ---------------------------------------------------

    @property
    def pid(self) -> ProcessId:
        return self._base.pid

    @property
    def time(self) -> int:
        return self._base.time

    @property
    def fd_value(self) -> Any:
        return self._base.fd_value

    def omega(self) -> ProcessId:
        value = self._base.fd_value
        if type(value) is int:  # a bare Omega sample: the common case
            return value
        return self._base.omega()

    def sigma(self) -> frozenset[ProcessId]:
        return self._base.sigma()

    def detector(self, name: str) -> Any:
        return self._base.detector(name)

    # -- effects -----------------------------------------------------------------

    def send(self, receiver: ProcessId, payload: Any) -> None:
        """Send to this layer's peer at ``receiver``."""
        self._base.send(receiver, (self.index, payload))

    def send_all(self, payload: Any, *, include_self: bool = True) -> None:
        """Send to this layer's peers at every process.

        One framing tuple is shared across all receivers (the scheduler's
        batched broadcast path shares the payload reference per envelope).
        Under a ``group_size`` the broadcast reaches only the group — sent
        point-to-point in ascending pid order, exactly the order the batched
        expansion would have used.
        """
        framed = (self.index, payload)
        if self._everyone is None:
            self._base._outbox.append(
                (BROADCAST_ALL if include_self else BROADCAST_OTHERS, framed)
            )
            return
        # A loop, not a comprehension: one over ``framed`` would make it a
        # closure cell (see _bind).
        outbox = self._base._outbox
        for receiver in self._everyone if include_self else self._others:
            outbox.append((receiver, framed))

    def send_raw(self, receiver: ProcessId, payload: Any) -> None:
        """Send without stack framing — for non-stack peers (e.g. clients)."""
        self._base.send(receiver, payload)

    def call_lower(self, request: Any) -> None:
        """Invoke an operation on the layer below (asynchronous)."""
        if self._lower_call is None:
            raise ProtocolError("bottom layer has no lower layer to call")
        self._pending.append((self._lower_call, self.index - 1, request))

    def emit_upper(self, event: Any) -> None:
        """Report an event to the layer above (or the application, at the top)."""
        if self._upper_event is None:
            self._base._outputs.append(event)
        else:
            self._pending.append((self._upper_event, self.index + 1, event))

    def output(self, value: Any) -> None:
        """Record an application-visible output directly."""
        self._base._outputs.append(value)

    def log(self, event: Any) -> None:
        self._base.log((self._layers[self.index].layer_name(), event))


#: Optional override for where a layer reads Omega from (e.g. a heartbeat
#: layer in the same stack). ``None`` means the step's failure detector value.
OmegaSource = Callable[[LayerContext], ProcessId] | None


class Layer:
    """One protocol in a stack. Subclass and override the handlers you need."""

    #: Human-readable name; defaults to the class name.
    name: str = ""

    pid: ProcessId = -1
    n: int = 0

    #: The layer's read of Omega at a step, in one call: the step's
    #: detector value, by :meth:`LayerContext.omega`'s rule — in C, without
    #: a Python frame, when the extension is built. A layer built with an
    #: ``omega_source`` reads it there instead (see :meth:`_set_omega_source`).
    _omega = staticmethod(
        LayerContext.omega if _ckernel is None else _ckernel.layer_omega
    )

    def attach(self, pid: ProcessId, n: int) -> None:
        """Bind the layer to its process id (called by the stack)."""
        self.pid = pid
        self.n = n

    def _set_omega_source(self, omega_source: OmegaSource) -> None:
        """Keep where the layer reads Omega (None: the step's detector
        value) and route :meth:`_omega` there. The override goes on the
        instance only when a source is given: a layer without one keeps no
        ``_omega`` in its state, of which frozen bytes (the CHT replay
        memo's key) are made."""
        self.omega_source = omega_source
        if omega_source is not None:
            self._omega = omega_source

    def on_start(self, ctx: "LayerContext") -> None:
        """Called once at the first step of the host process."""

    def on_message(self, ctx: "LayerContext", sender: ProcessId, payload: Any) -> None:
        """Called when a message sent by this layer's peer arrives."""

    def on_timeout(self, ctx: "LayerContext") -> None:
        """Called on every local timeout of the host process."""

    def on_input(self, ctx: "LayerContext", value: Any) -> None:
        """Called for application inputs (top layer only)."""
        raise ProtocolError(
            f"layer {self.layer_name()} received an application input {value!r} "
            "but does not accept inputs"
        )

    def on_call(self, ctx: "LayerContext", request: Any) -> None:
        """Called when the layer above invokes an operation on this layer."""
        raise ProtocolError(
            f"layer {self.layer_name()} received a call {request!r} "
            "but does not accept calls"
        )

    def on_lower_event(self, ctx: "LayerContext", event: Any) -> None:
        """Called when the layer below emits an event."""

    def layer_name(self) -> str:
        return self.name or type(self).__name__


class ProtocolStack(Process):
    """A process automaton composed of protocol layers."""

    #: The step context the cached layer contexts (``_contexts``, one per
    #: layer) are bound to. Neither is pickled: a frozen stack is its
    #: protocol state alone (see :meth:`__getstate__`).
    _base: Context | None = None

    def __init__(
        self, layers: Sequence[Layer], *, group_size: int | None = None
    ) -> None:
        if not layers:
            raise ConfigurationError("a protocol stack needs at least one layer")
        if group_size is not None and group_size < 1:
            raise ConfigurationError("group_size must be >= 1")
        self.layers = list(layers)
        #: When set, the protocol group is pids ``0..group_size-1``: the
        #: layers' view of ``n`` (quorums, coordinator rotation) and their
        #: broadcasts cover only the group. Processes above the group — e.g.
        #: open-loop clients (:mod:`repro.workload`) — share the simulation
        #: without being counted as protocol participants. The group is a
        #: contiguous pid prefix by construction so that every existing
        #: layer's ``pid``-from-index arithmetic stays valid.
        self.group_size = group_size
        #: ``(others, everyone)``: the group's receivers in ascending pid
        #: order without and with this process; set at attach (None without
        #: a group: broadcasts then go out as one batched outbox entry).
        self._group_receivers: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        #: indices of the layers whose class overrides ``on_timeout``.
        self._timeout_layers = tuple(
            index for index, layer in enumerate(self.layers)
            if type(layer).on_timeout is not Layer.on_timeout
        )
        self._pending: deque[tuple[Callable[..., None], int, Any]] = deque()

    def attach(self, pid: ProcessId, n: int) -> None:
        super().attach(pid, n)
        group = self.group_size
        if group is not None:
            if group > n:
                raise ConfigurationError(
                    f"group_size {group} exceeds simulation size {n}"
                )
            if pid >= group:
                raise ConfigurationError(
                    f"stack with group_size {group} attached at pid {pid} "
                    "outside its own group"
                )
            everyone = tuple(range(group))
            self._group_receivers = (
                tuple(receiver for receiver in everyone if receiver != pid),
                everyone,
            )
        for layer in self.layers:
            layer.attach(pid, group if group is not None else n)

    def __getstate__(self) -> dict[str, Any]:
        # The cached contexts hold the step context they were bound to;
        # pickling them would make a frozen stack's bytes depend on where
        # it last ran, not only on its protocol state.
        state = self.__dict__.copy()
        state.pop("_base", None)
        state.pop("_contexts", None)
        return state

    # -- layer lookup --------------------------------------------------------------

    def layer(self, key: int | str | type) -> Layer:
        """Find a layer by index, name, or class."""
        if isinstance(key, int):
            return self.layers[key]
        if isinstance(key, str):
            for layer in self.layers:
                if layer.layer_name() == key:
                    return layer
            raise KeyError(f"no layer named {key!r}")
        for layer in self.layers:
            if isinstance(layer, key):
                return layer
        raise KeyError(f"no layer of type {key!r}")

    @property
    def top(self) -> Layer:
        return self.layers[-1]

    @property
    def bottom(self) -> Layer:
        return self.layers[0]

    # -- dispatch machinery ----------------------------------------------------------

    def _bind(self, base_ctx: Context) -> list[LayerContext]:
        """Rebuild the layer contexts over ``base_ctx``. Callers reuse the
        cached ones while ``base_ctx is self._base``."""
        # A loop, not a comprehension: one over ``self`` and ``base_ctx``
        # would give this frame closure cells, and Python 3.11 leaks a
        # frame's arguments when allocating one fails.
        contexts = []
        for index in range(len(self.layers)):
            contexts.append(LayerContext(self, base_ctx, index))
        self._contexts = contexts
        self._base = base_ctx
        return contexts

    def _dispatch_plan(self, ctx: Context) -> tuple[Any, ...] | None:
        """What the C tick loop needs to run :meth:`on_message` and
        :meth:`on_timeout` itself, taken once per run call: ``(handlers,
        contexts, timeout_handlers, timeout_contexts, pending, drain)`` —
        every layer's bound ``on_message`` and its context bound to
        ``ctx``, the bound ``on_timeout`` and context of each layer that
        overrides ``on_timeout``, the pending queue and the bound
        :meth:`_drain`. None when this stack's
        ``on_message`` or ``on_timeout`` is not :class:`ProtocolStack`'s
        own (a subclass or an instance replaced it): the loop then calls
        those."""
        if (
            getattr(self.on_message, "__func__", None) is not ProtocolStack.on_message
            or getattr(self.on_timeout, "__func__", None)
            is not ProtocolStack.on_timeout
        ):
            return None
        contexts = self._contexts if ctx is self._base else self._bind(ctx)
        layers = self.layers
        timeout_handlers, timeout_contexts = [], []
        for index in self._timeout_layers:  # a loop: see _bind
            timeout_handlers.append(layers[index].on_timeout)
            timeout_contexts.append(contexts[index])
        return (
            tuple([layer.on_message for layer in layers]), tuple(contexts),
            tuple(timeout_handlers), tuple(timeout_contexts), self._pending,
            self._drain,
        )

    def _drain(self, base_ctx: Context) -> None:
        contexts = (
            self._contexts if base_ctx is self._base else self._bind(base_ctx)
        )
        pending = self._pending
        popleft = pending.popleft
        guard = 0
        while pending:
            guard += 1
            if guard > 100_000:
                raise ProtocolError(
                    "layer dispatch did not quiesce within one step "
                    "(likely a call/event loop between layers)"
                )
            handler, index, payload = popleft()
            handler(contexts[index], payload)

    # -- Process interface -------------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        contexts = self._contexts if ctx is self._base else self._bind(ctx)
        for index, layer in enumerate(self.layers):
            layer.on_start(contexts[index])
        if self._pending:
            self._drain(ctx)

    def on_message(self, ctx: Context, sender: ProcessId, payload: Any) -> None:
        contexts = self._contexts if ctx is self._base else self._bind(ctx)
        layers = self.layers
        # Framing is exactly ``(index, payload)``, a plain tuple led by a
        # plain int: a tuple subclass (``MessageId``, any NamedTuple) is an
        # application payload even when it has that shape.
        if (
            type(payload) is tuple
            and len(payload) == 2
            and type(payload[0]) is int
            and 0 <= payload[0] < len(layers)
        ):
            index, inner = payload
            layers[index].on_message(contexts[index], sender, inner)
        else:
            # Unframed message from a non-stack peer (e.g. a client process):
            # deliver to the top layer, the stack's outward-facing protocol.
            layers[-1].on_message(contexts[-1], sender, payload)
        if self._pending:
            self._drain(ctx)

    def on_input(self, ctx: Context, value: Any) -> None:
        contexts = self._contexts if ctx is self._base else self._bind(ctx)
        self.layers[-1].on_input(contexts[-1], value)
        if self._pending:
            self._drain(ctx)

    def on_timeout(self, ctx: Context) -> None:
        contexts = self._contexts if ctx is self._base else self._bind(ctx)
        layers = self.layers
        for index in self._timeout_layers:
            layers[index].on_timeout(contexts[index])
        if self._pending:
            self._drain(ctx)
