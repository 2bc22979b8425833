"""In-vitro replay of an EC algorithm for the CHT simulation.

The CHT construction locally simulates runs of the given algorithm ``A``
against stimuli (process order and detector values) drawn from DAG paths.
:class:`ReplaySandbox` executes single steps of ``A`` on explicit state
snapshots, so the simulation tree can branch: the same state can be extended
with different steps.

A step of the simulated algorithm is ``(pid, fd_value, deliver)``:

- the process may consume the oldest buffered message addressed to it
  (``deliver=True``) or take a lambda step;
- all of the stacked automaton's handlers run exactly as under the real
  scheduler (``on_start`` once, then ``on_message`` / ``on_timeout``);
- EC proposal inputs are *choices of the simulation*: when the algorithm
  asks for the proposal of ``(pid, instance)`` and the current node has not
  fixed it, the step aborts with :class:`InputNeeded` and the tree branches
  over both binary values.

States are immutable value objects: frozen automata + per-receiver message
FIFOs + cumulative decisions. An automaton is *frozen* to pickle bytes and
*thawed* into a fresh instance by a codec private to the sandbox that keeps
the one object automata share with it — the :class:`SharedInputTable` — out
of the bytes. The harness does not route through
``Process.snapshot``/``restore``; what it asks of a :data:`StackFactory`
automaton is that its state is picklable plain data (no lambdas, open
handles or other process-local objects), which ``ReplaySandbox(...)`` checks
at construction.

**Local steps run once.** A step of the paper is a function of the stepping
process's *local* state, the message it consumes and the detector value it
sees — which is why steps of different processes commute, and why the tree
is full of edges that repeat a step already taken on another branch.
:meth:`ReplaySandbox.execute` is therefore two parts:

- the **local step** (:class:`LocalStep`): thaw ``pid``'s automaton, run its
  handlers, freeze it — producing the new frozen bytes, the messages
  appended per receiver and the decisions, or the proposal key the step
  stopped on;
- the **composition**: the successor :class:`ReplayState` is the parent with
  ``pid``'s slot replaced, the consumed message popped and the sends
  appended to their receivers' FIFOs; every other automaton and FIFO is
  the parent's own object.

The sandbox keeps every local step it has run and answers a repeated one
from that memo. The memo key is everything a handler *can* read, so it is
sound for any deterministic automaton, not just the EC stack:

- what every step is given — ``pid``, the frozen bytes, ``started[pid]``,
  the detector value and the consumed ``(sender, payload)`` — keys the
  bucket, compared by value exactly as :class:`~repro.cht.dag.DagVertex`
  equality already compares samples;
- what a step *chose* to read is recorded while it runs and compared per
  entry: the proposal inputs it looked up (:class:`SharedInputTable` logs
  ``(key, value)`` per lookup, a missing key included, so a step that
  stopped on :class:`InputNeeded` is an entry like any other and the tree's
  abort-then-branch re-runs become lookups), and ``ctx.time`` only if the
  handler read it (the sandbox's own :class:`Context` subclass notes the
  read). An entry answers a call whose ``inputs`` agree on exactly the keys
  it looked up and, if it read the time, whose time is equal: a
  deterministic handler given the same answers to the same reads, in order,
  cannot tell the two calls apart;
- a stimulus that does not hash (a ``dict`` detector sample, a payload
  holding a list) bypasses the memo and runs the step.

Equal steps share one ``bytes`` object, one tuple per appended message and
one :class:`Decision` each, so the tree is smaller than with a copy per
edge. The memo is an attribute of the sandbox and
:func:`~repro.cht.extraction.extract_leader` builds one sandbox per call:
nothing is retained between extractions. It holds keys and plain values
only — never a caught :class:`InputNeeded`, whose traceback would pin the
thawed automaton and its ``Context`` for the life of the memo.
:attr:`ReplaySandbox.steps_executed` / :attr:`~ReplaySandbox.steps_shared`
count the two ways an ``execute`` call is answered.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.sim.context import Context, expand_sends
from repro.sim.errors import ConfigurationError
from repro.sim.process import Process
from repro.sim.types import ProcessId


class InputNeeded(Exception):
    """Raised when the simulated algorithm needs an unchosen proposal input."""

    def __init__(self, pid: ProcessId, instance: Any) -> None:
        super().__init__(f"input needed for (p{pid}, instance {instance})")
        self.key = (pid, instance)


#: The logged value of a lookup whose key the step's inputs did not hold.
MISSING = object()


class SharedInputTable:
    """Proposal inputs for the *current* step, controlled by the sandbox.

    The table is intentionally shared: the sandbox's codec freezes every
    reference to it as a token and thaws the token back to the same object,
    so frozen automata never capture stale copies. Inputs belong to tree
    nodes, not to automata.
    """

    def __init__(self) -> None:
        self.table: dict[tuple[ProcessId, Any], Any] = {}
        #: every lookup of the current step as ``(key, value)``, in order;
        #: ``value`` is :data:`MISSING` for the lookup that raised.
        self.lookups: list[tuple[tuple[ProcessId, Any], Any]] = []

    def lookup(self, pid: ProcessId, instance: Any) -> Any:
        key = (pid, instance)
        value = self.table.get(key, MISSING)
        self.lookups.append((key, value))
        if value is MISSING:
            raise InputNeeded(pid, instance)
        return value


@dataclass(frozen=True)
class Decision:
    """A ``proposeEC`` response observed in a simulated schedule."""

    pid: ProcessId
    instance: Any
    value: Any


@dataclass(frozen=True)
class ReplayState:
    """A configuration of the simulated system (immutable value object)."""

    #: per-process frozen automata (see :meth:`ReplaySandbox.thaw`).
    automata: tuple[bytes, ...]
    started: tuple[bool, ...]
    #: per-receiver FIFO of (sender, payload) pending messages.
    buffers: tuple[tuple[tuple[ProcessId, Any], ...], ...]
    #: cumulative decisions of the whole schedule, in order.
    decisions: tuple[Decision, ...]
    steps_taken: int = 0

    def pending_for(self, pid: ProcessId) -> int:
        return len(self.buffers[pid])

    def oldest_message(self, pid: ProcessId) -> tuple[ProcessId, Any] | None:
        return self.buffers[pid][0] if self.buffers[pid] else None

    def has_disagreement(self, instance: Any) -> bool:
        """True iff two different values were returned for ``instance``."""
        values = {repr(d.value) for d in self.decisions if d.instance == instance}
        return len(values) > 1

    def decided_values(self, instance: Any) -> set:
        return {d.value for d in self.decisions if d.instance == instance}


class LocalStep(NamedTuple):
    """One run of ``pid``'s handlers: what it read and what came of it.

    The first two fields are the step's recorded reads (the part of the memo
    key the handler chose); the rest is its outcome, which
    :meth:`ReplaySandbox.execute` composes onto a parent state.
    """

    #: proposal lookups ``(key, value-or-MISSING)`` in the order made.
    lookups: tuple[tuple[tuple[ProcessId, Any], Any], ...]
    #: the step's ``ctx.time`` if a handler read it, else ``None``.
    time: int | None
    #: the proposal key the step stopped on (then the fields below are empty).
    needs: tuple[ProcessId, Any] | None
    #: the automaton after the step.
    frozen: bytes | None
    #: ``(receiver, messages appended to its FIFO)``, messages in send order.
    sends: tuple[tuple[ProcessId, tuple[tuple[ProcessId, Any], ...]], ...]
    decisions: tuple[Decision, ...]

    def answers(self, inputs: dict[tuple[ProcessId, Any], Any], time: int) -> bool:
        """True iff a step given ``inputs`` at ``time`` would read the same."""
        if self.time is not None and self.time != time:
            return False
        for key, value in self.lookups:
            if inputs.get(key, MISSING) != value:
                return False
        return True


class _StepContext(Context):
    """The replayed step's :class:`Context`; notes whether ``time`` was read."""

    time_read = False

    @property
    def time(self) -> int:
        self.time_read = True
        return self._time

    @time.setter
    def time(self, value: int) -> None:
        self._time = value


#: Builds one process automaton; receives the proposal function to use.
StackFactory = Callable[[Callable[[ProcessId, int], Any]], Process]


#: The persistent id standing in for the sandbox's input table in frozen bytes.
_INPUTS_TOKEN = "inputs"
#: What pickle raises on state it cannot serialize.
_UNPICKLABLE = (pickle.PicklingError, TypeError, AttributeError)


class ReplaySandbox:
    """Deterministic single-step executor over :class:`ReplayState`."""

    def __init__(self, n: int, stack_factory: StackFactory) -> None:
        self.n = n
        inputs = self._inputs = SharedInputTable()

        class Freezer(pickle.Pickler):
            def persistent_id(self, obj: Any) -> str | None:
                return _INPUTS_TOKEN if obj is inputs else None

        class Thawer(pickle.Unpickler):
            def persistent_load(self, token: str) -> SharedInputTable:
                return inputs

        self._freezer, self._thawer = Freezer, Thawer
        #: ``(pid, frozen, started, fd_value, consumed)`` -> the local steps
        #: run from it, one per distinct set of answers to their reads.
        self._memo: dict[tuple, list[LocalStep]] = {}
        #: ``execute`` calls that ran the handlers / were answered from the memo.
        self.steps_executed = 0
        self.steps_shared = 0
        initial = []
        for pid in range(n):
            process = stack_factory(inputs.lookup)
            process.attach(pid, n)
            try:
                initial.append(self.freeze(process))
            except _UNPICKLABLE as exc:
                raise ConfigurationError(
                    "replayed automata must hold picklable plain-data state; "
                    f"cannot freeze {self._blame(process, type(process).__name__)}: {exc}"
                ) from exc
        self._initial_automata = tuple(initial)

    def freeze(self, process: Process) -> bytes:
        """The automaton as immutable bytes (input table kept by reference)."""
        buffer = io.BytesIO()
        self._freezer(buffer, pickle.HIGHEST_PROTOCOL).dump(process)
        return buffer.getvalue()

    def thaw(self, frozen: bytes) -> Process:
        """A fresh automaton from :meth:`freeze` bytes, bound to this
        sandbox's own input table."""
        return self._thawer(io.BytesIO(frozen)).load()

    def _blame(self, obj: Any, path: str) -> str:
        """The deepest attribute path under ``obj`` that does not freeze."""
        if isinstance(obj, dict):
            children = [(f"{path}[{key!r}]", value) for key, value in obj.items()]
        elif isinstance(obj, (list, tuple)):
            children = [(f"{path}[{i}]", value) for i, value in enumerate(obj)]
        else:
            children = [
                (f"{path}.{name}", value)
                for name, value in getattr(obj, "__dict__", {}).items()
            ]
        for child_path, child in children:
            try:
                self.freeze(child)
            except _UNPICKLABLE:
                return self._blame(child, child_path)
        return path

    def initial_state(self) -> ReplayState:
        return ReplayState(
            automata=self._initial_automata,
            started=tuple(False for _ in range(self.n)),
            buffers=tuple(() for _ in range(self.n)),
            decisions=(),
        )

    def execute(
        self,
        state: ReplayState,
        pid: ProcessId,
        fd_value: Any,
        deliver: bool,
        inputs: dict[tuple[ProcessId, Any], Any],
    ) -> ReplayState:
        """Run one step; returns the successor state.

        The handlers run only if this sandbox has not yet run the same local
        step (module docstring); the successor is composed from ``state``
        and the step's effect either way.

        Raises :class:`InputNeeded` when the step requires a proposal choice
        missing from ``inputs`` (the state is left untouched — the step runs
        on a freshly thawed automaton, so aborted attempts are free).
        """
        consumed: tuple[ProcessId, Any] | None = None
        if deliver:
            consumed = state.oldest_message(pid)
            if consumed is None:
                raise ValueError(f"no message pending for p{pid}; use a lambda step")
        frozen, started, time = state.automata[pid], state.started[pid], state.steps_taken

        try:
            known = self._memo.setdefault((pid, frozen, started, fd_value, consumed), [])
        except TypeError:  # an unhashable detector value or payload: no memo
            known = []
        step = next((s for s in known if s.answers(inputs, time)), None)
        if step is None:
            step = self._local_step(frozen, started, pid, fd_value, consumed, time, inputs)
            known.append(step)
            self.steps_executed += 1
        else:
            self.steps_shared += 1

        if step.needs is not None:
            raise InputNeeded(*step.needs)
        fifos = list(state.buffers)
        if consumed is not None:
            fifos[pid] = fifos[pid][1:]
        for receiver, messages in step.sends:
            fifos[receiver] += messages
        return ReplayState(
            automata=state.automata[:pid] + (step.frozen,) + state.automata[pid + 1 :],
            started=state.started[:pid] + (True,) + state.started[pid + 1 :],
            buffers=tuple(fifos),
            decisions=state.decisions + step.decisions,
            steps_taken=time + 1,
        )

    def _local_step(
        self,
        frozen: bytes,
        started: bool,
        pid: ProcessId,
        fd_value: Any,
        consumed: tuple[ProcessId, Any] | None,
        time: int,
        inputs: dict[tuple[ProcessId, Any], Any],
    ) -> LocalStep:
        """Thaw, run the handlers as the real scheduler would, freeze."""
        process = self.thaw(frozen)
        table = self._inputs
        table.table, table.lookups = inputs, []
        ctx = _StepContext(pid=pid, n=self.n, time=time, fd_value=fd_value)
        needs = new_frozen = None
        sends: dict[ProcessId, list[tuple[ProcessId, Any]]] = {}
        decisions: list[Decision] = []
        try:
            if not started:
                process.on_start(ctx)
            if consumed is not None:
                process.on_message(ctx, consumed[0], consumed[1])
            process.on_timeout(ctx)
        except InputNeeded as need:
            # Only the thawed instance has been mutated, and it is dropped
            # here. Keep the key, never the exception: its traceback holds
            # the handlers' frames, and through them ``process`` and ``ctx``.
            needs = need.key
        else:
            for receiver, payload in expand_sends(ctx.drain_outbox(), pid, self.n):
                sends.setdefault(receiver, []).append((pid, payload))
            for output in ctx.drain_outputs():
                if isinstance(output, tuple) and output and output[0] == "decide":
                    __, instance, value = output
                    decisions.append(Decision(pid, instance, value))
            new_frozen = self.freeze(process)
        return LocalStep(
            lookups=tuple(table.lookups),
            time=time if ctx.time_read else None,
            needs=needs,
            frozen=new_frozen,
            sends=tuple((receiver, tuple(sent)) for receiver, sent in sends.items()),
            decisions=tuple(decisions),
        )
