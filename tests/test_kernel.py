"""Kernel tests: the packed struct-of-arrays data plane is observationally
identical to the legacy ``Network``, on both the network API and whole runs.

Four pillars:

- a hypothesis differential driving the legacy ``Network`` and the packed
  pool side by side through random send/send_all/pop/batch-pop/crash/tick
  interleavings, asserting identical messages, counters, and next-delivery
  cursors at every step (the compiled pool joins when the extension is built);
- whole-run differentials over the randomized scenario space of
  ``test_engine_differential`` pinning byte-identical :class:`RunRecord`
  objects across ``kernel="legacy" | "packed" | "compiled-loop"`` — plus
  the C pool under the generic Python engine, which ``compiled-loop``
  steps through under ``engine="naive"`` and under random scheduling at
  ``record="full"`` — under both ``round_robin`` and ``random``
  scheduling and both engines;
- unit coverage for the kernel selection flag;
- the extension guard (``repro.sim._compiled``): a build is accepted only
  with the digest of the ``_ckernel.c`` beside it, and refused with one
  warning otherwise;
- direct unit tests of the compiled ``Pool`` shard ordering and slot
  recycling, fed through ``_ckernel.send_packed``, skipped when the
  extension is not built;
- compiled-loop rung coverage: the engagement/degradation ladder
  (``sim.fused_path``), which no step observer moves, including
  mid-lifetime :meth:`attach_observer` / :meth:`detach_observer`, and
  skipif-gated ``run_loop`` / ``pop_due_batch`` unit tests mirroring the
  ``Pool`` units;
- the one step hook: an observer of ``on_step`` or of ``on_step_raw``
  alone sees the naive stepper's steps on every rung and loop;
- the C loop's ``record="full"`` idle-span fill against the Python fused
  loop and the naive stepper, and its two fallbacks to ``_skip_span_rr``;
  its staged store writer, column by column, across every kind of flush;
- the failure contract: a raise from any of nine call sites escapes
  unchanged on every leg and fails the simulation for good, leaves every
  leg's store holding exactly the completed steps, and the C loop leaks
  no reference or allocation doing so;
- the detector's settle point: from the tick a history settles at, no
  loop queries it, and the run is the one a query-only history gives;
  and the fixed Python cost of an executed step on the C loop.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.etob import EtobLayer
from repro.detectors import OmegaDetector, OmegaHistory
from repro.protocols import protocol_detector
from repro.sim import (
    DEFAULT_KERNEL,
    HAS_COMPILED,
    HAS_COMPILED_LOOP,
    KERNELS,
    CompiledPackedNetwork,
    FailurePattern,
    FixedDelay,
    Network,
    PackedNetwork,
    Process,
    ProtocolStack,
    RunSpec,
    SimObserver,
    Simulation,
    SimulationFailed,
    StepStore,
    build_simulation,
    make_env,
    make_network,
    run_digest,
)
from repro.sim._compiled import ckernel
from repro.sim.errors import ConfigurationError
from repro.sim.types import NEVER

from helpers import STEP_COLUMNS, assert_rectangular
from test_engine_differential import build_sim, random_config, run_sim

#: kernels exercised by the whole-run differentials; the compiled rung
#: joins when a C extension matching its source loaded, and its absence
#: is covered separately.
BUILT_KERNELS = [k for k in KERNELS if k != "compiled-loop" or HAS_COMPILED]

#: the StepStore rows the C loop stages before it appends them in bulk
STAGE_ROWS = ckernel.STAGE_ROWS if HAS_COMPILED_LOOP else None


class StepSpy(SimObserver):
    """Overrides ``on_step`` alone: sees each step as the record the base
    ``on_step_raw`` builds, on whichever loop the run takes."""

    def __init__(self) -> None:
        self.seen: list[tuple[int, int, int]] = []

    def on_step(self, sim, record):
        self.seen.append((record.index, record.time, record.pid))


class RawStepSpy(SimObserver):
    """Overrides ``on_step_raw`` alone, the hook every loop calls."""

    def __init__(self) -> None:
        self.seen: list[tuple[int, int, int]] = []

    def on_step_raw(self, sim, index, t, pid, *fields):
        self.seen.append((index, t, pid))


class WantsIdle(SimObserver):
    """Asks the engine for every idle step and observes none itself."""

    wants_idle_steps = True


#: the leg stepping ``compiled-loop`` with the naive engine: the C pool
#: under the generic Python engine, so ``Simulation.step`` drives the C
#: send path and ``pop_due_batch``. (Random scheduling at ``record="full"``
#: is the event engine's way there; the differentials draw it per rung.)
POOL_UNDER_PYTHON = "compiled-loop+naive"

#: :data:`BUILT_KERNELS` plus, when the extension is built,
#: :data:`POOL_UNDER_PYTHON`.
BUILT_LEGS = BUILT_KERNELS + ([POOL_UNDER_PYTHON] if HAS_COMPILED else [])


def leg_options(leg: str) -> dict:
    """The ``Simulation`` keyword options that build ``leg`` of
    :data:`BUILT_LEGS`: its kernel and engine."""
    if leg == POOL_UNDER_PYTHON:
        return {"kernel": "compiled-loop", "engine": "naive"}
    return {"kernel": leg, "engine": "event"}


def assert_pool_under_python(sim: Simulation) -> None:
    """``sim`` is on the C pool but on the generic engine."""
    assert isinstance(sim.network, CompiledPackedNetwork)
    assert sim.fused_path is None


# ---------------------------------------------------------------------------
# Packed pool vs legacy Network, op by op.
# ---------------------------------------------------------------------------


class SometimesNeverDelay:
    """Seeded delays in [1, 9], with a slice of never-deliverable sends."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def delay(self, sender, receiver, t):
        if self._rng.random() < 0.2:
            return NEVER - t
        return self._rng.randint(1, 9)


def _fields(envelope) -> tuple:
    """A legacy ``Envelope`` as the raw pop tuple every network returns."""
    return (
        envelope.deliver_at,
        envelope.seq,
        envelope.sender,
        envelope.send_time,
        envelope.payload,
    )


def _state(net: Network) -> dict:
    return {
        "next": [net.next_delivery_time(r) for r in range(net.n)],
        "transit": [net.in_transit(r) for r in range(net.n)],
        "earliest": net.earliest_pending(range(net.n)),
        "sent": net.sent_count,
        "delivered": net.delivered_count,
    }


class TestPackedPoolDifferential:
    """Drive every built pool implementation in lockstep with the legacy
    queue-of-Envelopes network and require indistinguishable behaviour:
    ``send_packed`` returns the same send sequence (a freed pool slot is
    reused, the sequence never), and the pools' raw pop tuples match the
    legacy envelopes field by field."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_packed_matches_legacy_across_interleavings(self, data):
        n = data.draw(st.integers(min_value=2, max_value=5), label="n")
        nets = [Network(n, SometimesNeverDelay(seed=n))]
        nets.append(PackedNetwork(n, SometimesNeverDelay(seed=n)))
        if HAS_COMPILED:
            nets.append(CompiledPackedNetwork(n, SometimesNeverDelay(seed=n)))
        t = 0
        ops = data.draw(
            st.lists(
                st.sampled_from(
                    ["send", "send_all", "pop", "pop_batch", "tick"]
                ),
                min_size=1,
                max_size=50,
            ),
            label="ops",
        )
        legacy, pools = nets[0], nets[1:]
        for op in ops:
            if op == "send":
                sender = data.draw(st.integers(0, n - 1))
                receiver = data.draw(st.integers(0, n - 1))
                seqs = [
                    net.send_packed(sender, receiver, ("m", t), t)
                    for net in nets
                ]
                # the send sequence on every rung, never a pool slot
                assert seqs == [legacy.sent_count - 1] * len(nets)
            elif op == "send_all":
                sender = data.draw(st.integers(0, n - 1))
                include_self = data.draw(st.booleans())
                counts = [
                    net.send_all_packed(sender, "m", t, include_self)
                    for net in nets
                ]
                assert counts == [n - (not include_self)] * len(nets)
            elif op in ("pop", "pop_batch"):
                receiver = data.draw(st.integers(0, n - 1))
                limit = 1 if op == "pop" else data.draw(st.integers(1, 4))
                expected = []
                while len(expected) < limit:
                    envelope = legacy.pop_deliverable(receiver, t)
                    if envelope is None:
                        break
                    expected.append(_fields(envelope))
                for net in pools:
                    assert net.pop_deliverable_batch_raw(
                        receiver, t, limit
                    ) == expected
            else:  # tick
                t += data.draw(st.integers(1, 12))
            reference = _state(nets[0])
            for net in nets[1:]:
                assert _state(net) == reference

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_pop_equals_repeated_single_pops(self, data):
        # pop_deliverable_batch_raw is observationally the same as calling
        # it with limit 1 `limit` times, on every kernel.
        n = data.draw(st.integers(min_value=2, max_value=4), label="n")
        kernel = data.draw(st.sampled_from(BUILT_KERNELS), label="kernel")
        batch = make_network(n, SometimesNeverDelay(seed=n), kernel=kernel)
        single = make_network(n, SometimesNeverDelay(seed=n), kernel=kernel)
        t = 0
        for step in range(data.draw(st.integers(1, 30), label="steps")):
            sender = data.draw(st.integers(0, n - 1))
            receiver = data.draw(st.integers(0, n - 1))
            batch.send_packed(sender, receiver, step, t)
            single.send_packed(sender, receiver, step, t)
            if data.draw(st.booleans()):
                t += data.draw(st.integers(1, 10))
            target = data.draw(st.integers(0, n - 1))
            limit = data.draw(st.integers(1, 5))
            popped = batch.pop_deliverable_batch_raw(target, t, limit)
            expected = []
            for _ in range(limit):
                one = single.pop_deliverable_batch_raw(target, t, 1)
                if not one:
                    break
                expected += one
            assert popped == expected
            assert _state(batch) == _state(single)


# ---------------------------------------------------------------------------
# Whole-run byte-equality across kernels, both scheduling policies.
# ---------------------------------------------------------------------------


class TestKernelRunDifferential:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    def test_all_kernels_byte_identical(self, seed, scheduling):
        config = random_config(seed)
        config["scheduling"] = scheduling
        runs = {
            leg: run_sim(build_sim(config, **leg_options(leg)), config)
            for leg in BUILT_LEGS
        }
        if HAS_COMPILED:
            assert_pool_under_python(runs[POOL_UNDER_PYTHON])
            if scheduling == "random":  # record="full": the per-tick walk
                assert_pool_under_python(runs["compiled-loop"])
        reference = runs["legacy"]
        assert isinstance(reference.run.steps, StepStore)
        for kernel, sim in runs.items():
            assert sim.run == reference.run, (
                f"kernel {kernel!r} diverged for config {config}"
            )
            assert sim.time == reference.time
            assert sim.network.sent_count == reference.network.sent_count
            assert (
                sim.network.delivered_count
                == reference.network.delivered_count
            )

    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    @pytest.mark.parametrize("kernel", BUILT_KERNELS)
    def test_naive_engine_runs_on_every_kernel(self, kernel, scheduling):
        # With test_all_kernels_byte_identical tying the kernels together
        # under the event engine, this completes the full
        # kernel x scheduling x engine byte-equality matrix.
        config = random_config(4)
        config["scheduling"] = scheduling
        naive = run_sim(build_sim(config, engine="naive", kernel=kernel), config)
        event = run_sim(build_sim(config, engine="event", kernel=kernel), config)
        if kernel == "compiled-loop":
            assert_pool_under_python(naive)
        assert naive.run == event.run


# ---------------------------------------------------------------------------
# Kernel selection flag.
# ---------------------------------------------------------------------------


class Chatter(Process):
    def on_timeout(self, ctx):
        ctx.send((ctx.pid + 1) % ctx.n, ("m", ctx.time))

    def on_message(self, ctx, sender, payload):
        pass


def default_kernel_report() -> dict:
    """What a default-kernel interpreter resolves to and computes: imported
    by name in the extension-less child of
    ``test_an_interpreter_without_the_extension_defaults_to_packed``."""
    from repro.workload import WorkloadSpec, workload_sim

    dense = Simulation(
        [Gossiper() for _ in range(4)],
        delay_model=FixedDelay(2),
        timeout_interval=32,
        seed=3,
    )
    paths = [dense.fused_path, dense.fused_reason]
    dense.run_until(6_000)
    spec = WorkloadSpec(clients=3, ops_per_client=8, mean_gap=12, seed=5)
    cell, observer, horizon = workload_sim(spec, stack="etob", env="uniform")
    cell.run_until(horizon)
    return {
        "default_kernel": DEFAULT_KERNEL,
        "kernels": [dense.kernel, cell.kernel],
        "network": type(dense.network).__name__,
        "paths": paths + [dense.metrics.fused_path, cell.metrics.fused_path],
        "dense": [run_digest(dense), dense.network.sent_count],
        "cell": [run_digest(cell), repr(observer.summary())],
    }


class Gossiper(Process):
    def on_timeout(self, ctx):
        ctx.send_all(("beat", ctx.time), include_self=False)

    def on_message(self, ctx, sender, payload):
        pass


class TestKernelSelection:
    def test_default_kernel_is_the_fastest_rung_that_loaded(self):
        # The rule, not a rung: observed at import, never configured.
        assert DEFAULT_KERNEL == ("compiled-loop" if HAS_COMPILED else "packed")
        sim = Simulation([Chatter() for _ in range(2)])
        assert sim.kernel == DEFAULT_KERNEL
        assert type(sim.network) is (
            CompiledPackedNetwork if HAS_COMPILED else PackedNetwork
        )
        assert sim.fused_path == ("c-loop" if HAS_COMPILED else "python")
        assert type(make_network(2)) is type(sim.network)

    def test_every_kernel_default_reads_the_one_constant(self):
        import inspect

        from repro.search.falsify import falsify
        from repro.search.targets import evaluate, rebuild_simulation
        from repro.search.witness import replay_witness
        from repro.sim import RunSpec, replay_simulation
        from repro.workload import workload_sim

        for fn in (
            Simulation.__init__,
            make_network,
            replay_simulation,
            workload_sim,
            evaluate,
            rebuild_simulation,
            falsify,
            replay_witness,
        ):
            default = inspect.signature(fn).parameters["kernel"].default
            assert default == DEFAULT_KERNEL, fn.__qualname__
        assert RunSpec(n=2, duration=1).kernel == DEFAULT_KERNEL

    def test_no_kernel_name_is_a_hard_coded_default_under_src(self):
        # Grep over signatures, by syntax tree: a ``kernel`` parameter,
        # dataclass field, ``[_]kernel`` attribute or ``--kernel`` option
        # whose default is a rung literal would silently pin that rung.
        import ast
        from pathlib import Path

        import repro

        def rung(node):
            return isinstance(node, ast.Constant) and node.value in KERNELS

        def named_kernel(target):
            name = getattr(target, "id", getattr(target, "attr", ""))
            return name.lstrip("_") == "kernel"

        offenders = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                pinned = False
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    positional = args.posonlyargs + args.args
                    pairs = list(
                        zip(positional[len(positional) - len(args.defaults):],
                            args.defaults)
                    ) + list(zip(args.kwonlyargs, args.kw_defaults))
                    pinned = any(
                        arg.arg == "kernel" and rung(default)
                        for arg, default in pairs
                    )
                elif isinstance(node, ast.AnnAssign):
                    pinned = named_kernel(node.target) and rung(node.value)
                elif isinstance(node, ast.Assign):
                    pinned = rung(node.value) and any(
                        named_kernel(target) for target in node.targets
                    )
                elif isinstance(node, ast.Call):
                    pinned = any(
                        isinstance(a, ast.Constant) and a.value == "--kernel"
                        for a in node.args
                    ) and any(
                        k.arg == "default" and rung(k.value)
                        for k in node.keywords
                    )
                if pinned:
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

    @pytest.mark.skipif(not HAS_COMPILED, reason="C extension not built")
    def test_an_interpreter_without_the_extension_defaults_to_packed(self):
        """PR 19's idiom: a fresh interpreter in which the extension cannot
        be imported picks ``packed`` silently and computes the same runs."""
        import json
        import subprocess
        import sys
        from pathlib import Path

        import repro

        child = (
            "import json, sys, warnings\n"
            "sys.modules['repro.sim._ckernel'] = None\n"
            f"sys.path[:0] = {[str(Path(repro.__file__).parents[1]), str(Path(__file__).parent)]!r}\n"
            "warnings.simplefilter('error')\n"
            "from test_kernel import default_kernel_report\n"
            "print(json.dumps(default_kernel_report()))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        theirs = json.loads(result.stdout.splitlines()[-1])
        ours = default_kernel_report()
        assert theirs["default_kernel"] == "packed"
        assert theirs["kernels"] == ["packed", "packed"]
        assert theirs["network"] == "PackedNetwork"
        assert theirs["paths"] == [
            "python", "extension not loaded", "python", "python",
        ]
        assert ours["default_kernel"] == "compiled-loop"
        assert ours["paths"] == ["c-loop", None, "c-loop", "c-loop"]
        assert theirs["dense"] == ours["dense"]
        assert theirs["cell"] == ours["cell"]

    def test_legacy_kernel_builds_plain_network(self):
        sim = Simulation([Chatter() for _ in range(2)], kernel="legacy")
        assert type(sim.network) is Network

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError, match="kernel"):
            Simulation([Chatter() for _ in range(2)], kernel="vectorized")
        with pytest.raises(ConfigurationError, match="kernel"):
            make_network(2, kernel="vectorized")

    def test_run_spec_passthrough(self):
        spec = RunSpec(n=2, duration=0, protocol="etob")
        sim = build_simulation(replace(spec, kernel="legacy"))
        assert type(sim.network) is Network
        assert build_simulation(spec).kernel == DEFAULT_KERNEL
        assert build_simulation(replace(spec, kernel="packed")).kernel == "packed"

    def test_compiled_kernel_requires_the_extension(self, monkeypatch):
        import repro.sim.kernel as kernel_mod

        monkeypatch.setattr(kernel_mod, "HAS_COMPILED", False)
        with pytest.raises(ConfigurationError, match="compiled-loop"):
            Simulation([Chatter() for _ in range(2)], kernel="compiled-loop")

    @pytest.mark.skipif(not HAS_COMPILED, reason="C extension not built")
    def test_compiled_kernel_builds_pool_network(self):
        sim = Simulation([Chatter() for _ in range(2)], kernel="compiled-loop")
        assert isinstance(sim.network, CompiledPackedNetwork)
        assert sim.network.pool_slots == 0


class TestExtensionGuard:
    """``repro.sim._compiled``: a build is used only when it was compiled
    from the ``_ckernel.c`` lying beside it."""

    @staticmethod
    def _fake(tmp_path, **attributes):
        import hashlib
        import types

        source = tmp_path / "_ckernel.c"
        source.write_bytes(b"/* the source beside the build */\n")
        module = types.ModuleType("repro.sim._ckernel")
        module.__dict__.update(attributes)
        return module, source, hashlib.sha256(source.read_bytes()).hexdigest()

    def test_matching_digest_is_accepted_silently(self, tmp_path, recwarn):
        from repro.sim._compiled import _verified

        module, source, digest = self._fake(tmp_path)
        module.SOURCE_DIGEST = digest
        assert _verified(module, source) is module
        assert not recwarn.list

    def test_an_edited_source_byte_degrades_with_one_warning(self, tmp_path):
        from repro.sim._compiled import _verified

        module, source, digest = self._fake(tmp_path)
        module.SOURCE_DIGEST = digest
        source.write_bytes(source.read_bytes() + b" ")
        with pytest.warns(RuntimeWarning, match="SOURCE_DIGEST differs") as caught:
            assert _verified(module, source) is None
        assert len(caught) == 1
        assert "python setup.py build_ext --inplace" in str(caught[0].message)

    def test_a_build_predating_the_digest_is_refused(self, tmp_path):
        """The shape of every extension built before the check existed:
        ``Pool`` and ``run_loop`` but no ``SOURCE_DIGEST`` (and no
        ``stable_hash``) — refused even with no source to compare with."""
        from repro.sim._compiled import _verified

        module, source, __ = self._fake(tmp_path, Pool=object, run_loop=len)
        for beside in (source, tmp_path / "absent.c"):
            with pytest.warns(RuntimeWarning, match="no SOURCE_DIGEST") as caught:
                assert _verified(module, beside) is None
            assert len(caught) == 1

    def test_a_binary_shipped_without_its_source_is_trusted(self, tmp_path, recwarn):
        from repro.sim._compiled import _verified

        module, __, __ = self._fake(tmp_path, SOURCE_DIGEST="0" * 64)
        assert _verified(module, tmp_path / "absent.c") is module
        assert not recwarn.list

    @pytest.mark.skipif(not HAS_COMPILED, reason="C extension not built")
    def test_the_loaded_extension_carries_the_digest_of_its_source(self):
        import hashlib
        from pathlib import Path

        import repro.sim._compiled as compiled

        source = Path(compiled.__file__).with_name("_ckernel.c")
        assert compiled.ckernel.SOURCE_DIGEST == hashlib.sha256(
            source.read_bytes()
        ).hexdigest()
        assert HAS_COMPILED_LOOP


# ---------------------------------------------------------------------------
# Compiled pool unit behaviour.
# ---------------------------------------------------------------------------


class ScriptedDelay:
    """Delays taken in order from a script, one per send."""

    def __init__(self, *delays: int) -> None:
        self._delays = list(delays)

    def delay(self, sender, receiver, t):
        return self._delays.pop(0)


def scripted_pool(*sends, n=3):
    """A ``CompiledPackedNetwork`` over ``n`` processes fed ``(sender,
    receiver, payload, t, delay)`` sends through ``_ckernel.send_packed``,
    and its ``Pool``. The network assigns seq 0, 1, ... in send order."""
    from repro.sim import _ckernel

    net = CompiledPackedNetwork(n, ScriptedDelay(*(s[4] for s in sends)))
    for sender, receiver, payload, t, __ in sends:
        _ckernel.send_packed(net, sender, receiver, payload, t)
    return net, net._pool


@pytest.mark.skipif(not HAS_COMPILED, reason="C extension not built")
class TestCompiledPool:
    def test_orders_by_deliver_at_then_seq(self):
        __, pool = scripted_pool(
            (0, 1, "late", 0, 10),
            (0, 1, "early", 0, 8),
            (0, 1, "later-seq", 0, 8),
        )
        assert pool.pop_due_batch(1, 20, 1) == ([(8, 1, 0, 0, "early")], 8)
        assert pool.pop_due_batch(1, 20, 1) == ([(8, 2, 0, 0, "later-seq")], 10)
        assert pool.pop_due_batch(1, 20, 1) == ([(10, 0, 0, 0, "late")], -1)
        assert pool.pop_due_batch(1, 20, 1) == ([], -1)

    def test_slot_recycling(self):
        net, pool = scripted_pool((0, 0, "a", 0, 1), (0, 1, "b", 0, 2))
        assert (pool.slots(), pool.free()) == (2, 0)
        pool.pop_due_batch(0, 5, 1)
        assert (pool.slots(), pool.free()) == (2, 1)
        net.delay_model = ScriptedDelay(3)
        net.send_packed(0, 2, "c", 0)  # reuses the freed slot
        assert (pool.slots(), pool.free()) == (2, 0)

    def test_payload_identity_preserved(self):
        payload = {"mutable": []}
        __, pool = scripted_pool((0, 0, payload, 0, 1))
        assert pool.__getstate__()[4][0] is payload
        assert pool.pop_due_batch(0, 1, 1)[0][0][4] is payload

    def test_send_packed_takes_no_collect_argument(self):
        from repro.sim import _ckernel

        net = CompiledPackedNetwork(3, FixedDelay(1))
        with pytest.raises(TypeError):
            _ckernel.send_packed(net, 0, 1, "x", 0, [])
        with pytest.raises(TypeError):
            _ckernel.send_all_packed(net, 0, "x", 0, True, [])
        assert net.sent_count == 0

    def test_pop_due_batch_matches_repeated_single_pops(self):
        sends = [
            (0, 1, "early", 0, 8),
            (0, 1, "late", 0, 10),
            (0, 1, "later-seq", 0, 8),
            (0, 1, "future", 0, 99),
        ]
        (__, batch), (__, single) = scripted_pool(*sends), scripted_pool(*sends)
        items, new_head = batch.pop_due_batch(1, 10, 3)
        expected = [single.pop_due_batch(1, 10, 1)[0][0] for _ in range(3)]
        assert items == expected
        assert new_head == 99  # the first still-undue message
        # Drained of due messages: empty batch, head unchanged.
        assert batch.pop_due_batch(1, 10, 4) == ([], 99)

    def test_pop_due_batch_respects_time_and_limit(self):
        __, pool = scripted_pool((1, 0, "a", 2, 3), (1, 0, "b", 2, 4))
        assert pool.pop_due_batch(0, 4, 10) == ([], 5)
        assert pool.pop_due_batch(0, 5, 10) == ([(5, 0, 1, 2, "a")], 6)
        assert pool.pop_due_batch(2, 10, 1) == ([], -1)  # empty shard

    def test_pop_due_batch_errors(self):
        __, pool = scripted_pool()
        with pytest.raises(IndexError):
            pool.pop_due_batch(5, 1, 1)
        with pytest.raises(TypeError):
            pool.pop_due_batch(0, 1)


# ---------------------------------------------------------------------------
# Compiled tick loop: the engagement ladder and run_loop unit behaviour.
# ---------------------------------------------------------------------------


class LogSpy(SimObserver):
    def __init__(self) -> None:
        self.events = []

    def on_log(self, sim, t, pid, event):
        self.events.append((t, pid, event))


class LoggingChatter(Process):
    def on_timeout(self, ctx):
        ctx.send((ctx.pid + 1) % ctx.n, ("m", ctx.time))
        ctx.log(("beat", ctx.time))

    def on_message(self, ctx, sender, payload):
        pass


def _loop_sim(kernel, observers=(), cls=Chatter, n=3, **options):
    return Simulation(
        [cls() for _ in range(n)],
        delay_model=FixedDelay(2),
        timeout_interval=3,
        seed=5,
        record="metrics",
        kernel=kernel,
        observers=list(observers),
        **options,
    )


class TestObserverAttachDetach:
    """Mid-lifetime observer changes re-resolve the whole dispatch ladder
    (kernel-independent; the C rung's view is in TestCompiledLoopLadder)."""

    def test_attach_rejects_non_observers(self):
        with pytest.raises(ConfigurationError, match="SimObserver"):
            _loop_sim("packed").attach_observer(object())

    def test_detach_unknown_observer_rejected(self):
        with pytest.raises(ConfigurationError):
            _loop_sim("packed").detach_observer(StepSpy())

    @pytest.mark.parametrize("spy_cls", [StepSpy, RawStepSpy])
    def test_attach_detach_keeps_the_fused_path(self, spy_cls):
        sim = _loop_sim("packed")
        assert sim.fused_path == "python"
        spy = spy_cls()
        sim.attach_observer(spy)
        assert sim.fused_path == "python"  # no step observer moves a run
        sim.detach_observer(spy)
        assert sim.fused_path == "python"

    def test_attach_detach_toggles_a_random_run_that_materializes_idle(self):
        sim = Simulation(
            [Chatter() for _ in range(3)], scheduling="random", record="metrics"
        )
        top = sim.fused_path, sim.fused_reason
        idle = WantsIdle()
        sim.attach_observer(idle)
        assert (sim.fused_path, sim.fused_reason) == (
            None, "scheduling=random materializes idle steps"
        )
        sim.detach_observer(idle)
        assert (sim.fused_path, sim.fused_reason) == top

    @pytest.mark.parametrize("spy_cls", [StepSpy, RawStepSpy])
    def test_mid_run_attach_does_not_change_the_trajectory(self, spy_cls):
        watched, plain = _loop_sim("packed"), _loop_sim("packed")
        watched.run_until(1_000)
        spy = spy_cls()
        watched.attach_observer(spy)
        watched.run_until(2_000)
        watched.detach_observer(spy)
        watched.run_until(3_000)
        plain.run_until(3_000)
        assert run_digest(watched) == run_digest(plain)
        assert spy.seen


@pytest.mark.skipif(not HAS_COMPILED_LOOP, reason="C loop not built")
class TestCompiledLoopLadder:
    """When the C tick loop engages, when it degrades, and that both
    answers leave the trajectory byte-identical to the Python fused loop."""

    def test_engages_and_matches_python_loop(self):
        c, py = _loop_sim("compiled-loop"), _loop_sim("packed")
        assert c.fused_path == "c-loop"
        assert py.fused_path == "python"
        c.run_until(4_000)
        py.run_until(4_000)
        assert run_digest(c) == run_digest(py)

    def test_lower_rungs_and_the_degraded_pool_never_take_the_c_loop(self):
        assert _loop_sim("legacy").fused_path is None
        assert _loop_sim("packed").fused_path == "python"
        assert _loop_sim("packed", [StepSpy()]).fused_path == "python"
        assert _loop_sim("compiled-loop", [StepSpy()]).fused_path == "c-loop"
        assert_pool_under_python(_loop_sim("compiled-loop", engine="naive"))

    def test_compiled_loop_never_runs_the_python_fused_loop(self):
        # Across the observer capability matrix, both schedules, every
        # fidelity and both engines, compiled-loop is the C loop or the
        # generic engine: run_fused_rr only ever sees the Python pool.
        spies = [StepSpy, RawStepSpy, LogSpy, IdleStepSpy, IdleSpanSpy]
        combos = [()] + [(cls,) for cls in spies] + [
            pair for pair in itertools.combinations(spies, 2)
        ]
        paths = set()
        for combo, scheduling, record, engine in itertools.product(
            combos, ("round_robin", "random"), ("full", "metrics", "none"),
            ("event", "naive"),
        ):
            sim = Simulation(
                [Chatter() for _ in range(3)], kernel="compiled-loop",
                scheduling=scheduling, record=record, engine=engine,
                observers=[cls() for cls in combo],
            )
            assert sim.fused_path in ("c-loop", None), (combo, scheduling)
            paths.add(sim.fused_path)
        assert paths == {"c-loop", None}

    def test_log_observers_stay_on_the_c_loop(self):
        # Log dispatch crosses back into Python from C, so a log observer
        # must not cost the rung — and must see the identical event stream.
        c_spy, py_spy = LogSpy(), LogSpy()
        c = _loop_sim("compiled-loop", [c_spy], cls=LoggingChatter)
        py = _loop_sim("packed", [py_spy], cls=LoggingChatter)
        assert c.fused_path == "c-loop"
        c.run_until(2_000)
        py.run_until(2_000)
        assert run_digest(c) == run_digest(py)
        assert c_spy.events == py_spy.events
        assert c_spy.events  # the scenario actually logged

    @pytest.mark.parametrize("spy_cls", [StepSpy, RawStepSpy])
    def test_attach_detach_keeps_the_c_loop_mid_run(self, spy_cls):
        c, py = _loop_sim("compiled-loop"), _loop_sim("packed")
        c_spy, py_spy = spy_cls(), spy_cls()
        c.run_until(1_000)
        py.run_until(1_000)
        assert c.fused_path == "c-loop"
        c.attach_observer(c_spy)
        py.attach_observer(py_spy)
        assert (c.fused_path, py.fused_path) == ("c-loop", "python")
        c.run_until(2_000)
        py.run_until(2_000)
        c.detach_observer(c_spy)
        py.detach_observer(py_spy)
        assert (c.fused_path, py.fused_path) == ("c-loop", "python")
        c.run_until(3_000)
        py.run_until(3_000)
        assert run_digest(c) == run_digest(py)
        assert c_spy.seen == py_spy.seen
        assert c_spy.seen

    def test_run_loop_arity_and_type_errors(self):
        from repro.sim import _ckernel

        with pytest.raises(TypeError):
            _ckernel.run_loop()
        with pytest.raises(TypeError):
            _ckernel.run_loop(1, 2)
        with pytest.raises(AttributeError):
            _ckernel.run_loop(object(), 10, None)
        # fused_runner never hands the loop a random schedule that keeps
        # idle steps: it has no Python idle-span method to call for one
        sim = Simulation([Process()], scheduling="random", record="full")
        with pytest.raises(ValueError, match="materialize"):
            _ckernel.run_loop(sim, 10, None)


# ---------------------------------------------------------------------------
# record="full" idle spans: the C loop fills the store itself.
# ---------------------------------------------------------------------------


class PhaseDetector:
    """A pure ``(pid, t)`` history of fresh but equal tuples (the store
    interns them), logging every query in order."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.log: list[tuple[int, int]] = []

    def query(self, pid, t):
        self.log.append((pid, t))
        return ("leader", (t // 97) % self.n)


class EchoGossiper(Gossiper):
    """Gossip plus one output per input, so the sparse columns fill too."""

    def on_input(self, ctx, value):
        ctx.output(("got", value))


class SpanSpy:
    """Wraps ``sim._skip_span_rr``, the Python idle-span path, and notes
    every span handed to it."""

    def __init__(self, sim: Simulation) -> None:
        self.spans: list[tuple[int, int]] = []
        inner = sim._skip_span_rr

        def spy(start, end):
            self.spans.append((start, end))
            inner(start, end)

        sim._skip_span_rr = spy


class IdleStepSpy(SimObserver):
    def __init__(self) -> None:
        self.ticks = []

    def on_idle_step(self, sim, index, t, pid, fd_value):
        self.ticks.append((index, t, pid, fd_value))


class IdleSpanSpy(SimObserver):
    def __init__(self) -> None:
        self.spans = []

    def on_idle_span(self, sim, start_index, start, end):
        self.spans.append((start_index, start, end))


#: the C loop, the Python fused loop it is held to, and the naive stepper
FILL_LEGS = [("compiled-loop", "event"), ("packed", "event"), ("legacy", "naive")]


def _fill_sim(kernel, engine="event", *, n, detector, crashes=None, observers=()):
    sim = Simulation(
        [EchoGossiper() for __ in range(n)],
        failure_pattern=FailurePattern(n, crashes or {}),
        delay_model=FixedDelay(3),
        detector=PhaseDetector(n) if detector else None,
        timeout_interval=29,
        seed=4,
        kernel=kernel,
        engine=engine,
        observers=list(observers),
    )
    for k in range(9):
        sim.add_input(k % n, 5 + 211 * k, ("op", k))
    return sim


def _fill_view(sim: Simulation) -> dict:
    return {
        "run": sim.run,
        "step_index": sim._step_index,
        "last_live_tick": sim.last_live_tick,
        "end_time": sim.run.end_time,
        "time": sim.time,
        "digest": run_digest(sim),
        "queries": sim.detector.log if sim.detector is not None else None,
    }


@pytest.mark.skipif(not HAS_COMPILED_LOOP, reason="C loop not built")
class TestIdleSpanFill:
    """At record="full" under round-robin the C loop writes a crash-free
    idle span's rows into the StepStore itself instead of calling
    ``_skip_span_rr``; it must leave what that call leaves."""

    HORIZON = 2_003

    @pytest.mark.parametrize("detector", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_the_fill_computes_the_python_loops_and_naive_steppers_run(
        self, n, detector
    ):
        sims = {leg: _fill_sim(*leg, n=n, detector=detector) for leg in FILL_LEGS}
        spies = {leg: SpanSpy(sims[leg]) for leg in FILL_LEGS[:2]}
        for sim in sims.values():
            sim.run_until(self.HORIZON)
        oracle = _fill_view(sims["legacy", "naive"])
        for leg, sim in sims.items():
            assert_rectangular(sim.run.steps)
            assert _fill_view(sim) == oracle, leg
        # the C loop filled every span itself, the last one ending at t_end
        assert spies["compiled-loop", "event"].spans == []
        assert spies["packed", "event"].spans[-1][1] == self.HORIZON
        store = sims["compiled-loop", "event"].run.steps
        assert len(store) == self.HORIZON
        last = store[-1]
        assert (last.message, last.timeout_fired, last.sent) == (None, False, 0)
        assert store._inputs and store._outputs
        if detector:
            # one shared object per distinct sample
            assert len({id(v) for v in store._fd}) == len(set(store._fd)) == n

    @pytest.mark.parametrize("detector", [False, True])
    def test_segmented_run_until_changes_nothing(self, detector):
        whole = _fill_sim("legacy", "naive", n=4, detector=detector)
        whole.run_until(self.HORIZON)
        for kernel in ("compiled-loop", "packed"):
            cut = _fill_sim(kernel, n=4, detector=detector)
            for k in range(1, 38):
                cut.run_until(self.HORIZON * k // 37)
                assert_rectangular(cut.run.steps)
            assert _fill_view(cut) == _fill_view(whole), kernel

    def test_a_crash_below_the_span_end_falls_back_to_python(self):
        crashes = {1: 1_000}
        sims = {
            leg: _fill_sim(*leg, n=4, detector=True, crashes=crashes)
            for leg in FILL_LEGS
        }
        spies = {leg: SpanSpy(sims[leg]) for leg in FILL_LEGS[:2]}
        for sim in sims.values():
            sim.run_until(self.HORIZON)
        oracle = _fill_view(sims["legacy", "naive"])
        for leg, sim in sims.items():
            assert_rectangular(sim.run.steps)
            assert _fill_view(sim) == oracle, leg
        spans = spies["compiled-loop", "event"].spans
        assert spans == [
            span for span in spies["packed", "event"].spans if span[1] > 1_000
        ]
        assert spans and len(spans) < len(spies["packed", "event"].spans)

    @pytest.mark.parametrize("spy_cls", [IdleStepSpy, IdleSpanSpy])
    def test_another_idle_observer_falls_back_to_python(self, spy_cls):
        observers = {leg: spy_cls() for leg in FILL_LEGS[:2]}
        sims = {
            leg: _fill_sim(*leg, n=4, detector=True, observers=[observers[leg]])
            for leg in FILL_LEGS[:2]
        }
        spies = {leg: SpanSpy(sim) for leg, sim in sims.items()}
        c, py = sims["compiled-loop", "event"], sims["packed", "event"]
        assert c.fused_path == "c-loop"
        for sim in sims.values():
            sim.run_until(self.HORIZON)
            assert_rectangular(sim.run.steps)
        assert _fill_view(c) == _fill_view(py)
        assert spies["compiled-loop", "event"].spans == (
            spies["packed", "event"].spans
        )
        assert vars(observers["compiled-loop", "event"]) == vars(
            observers["packed", "event"]
        )
        assert spies["packed", "event"].spans


class NeverCalled:
    """Stands in for a Python idle-span method the C loop must not reach."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __call__(self, start, end):
        raise AssertionError(f"{self.name}({start}, {end}) called")


#: (n, crash pattern, timeout interval) of the idle-count differential
COUNT_CASES = {
    "no-crash": (5, {}, 23),
    "crash-at-0": (4, {1: 0}, 23),
    "crash-on-a-block-boundary": (5, {2: 300}, 23),
    "crash-mid-block": (5, {3: 37}, 23),
    "all-but-one-crashed": (5, {0: 200, 1: 35, 3: 36, 4: 611}, 23),
    "every-process-crashed": (4, {0: 90, 1: 401, 2: 13, 3: 777}, 23),
    "n=1": (1, {}, 23),
    "n=1-crashed": (1, {0: 500}, 23),
    "long-post-crash-spans": (4, {0: 150, 2: 151}, 199),
}

#: the fidelities at which nothing materializes idle steps
COUNTED_RECORDS = ["none", "metrics", "outputs"]


def _count_view(sim: Simulation) -> dict:
    return {
        "time": sim.time,
        "last_live_tick": sim.last_live_tick,
        "step_index": sim._step_index,
        "idle_ticks_skipped": sim.metrics.idle_ticks_skipped,
        "digest": run_digest(sim),
    }


@pytest.mark.skipif(not HAS_COMPILED_LOOP, reason="C loop not built")
class TestIdleSpanCount:
    """Where nothing materializes idle steps the C loop counts every idle
    span itself, under either schedule, instead of calling
    ``_skip_span_rr`` / ``_skip_span_random``; it must count what they
    count."""

    HORIZON = 1_503

    @pytest.mark.parametrize("case", list(COUNT_CASES))
    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    @pytest.mark.parametrize("record", COUNTED_RECORDS)
    def test_the_count_is_the_python_loops(self, record, scheduling, case):
        n, crashes, timeout = COUNT_CASES[case]
        spans = []
        views = {}
        for kernel, segment in itertools.product(
            ("compiled-loop", "packed"), (self.HORIZON, 7)
        ):
            sim = _random_sim(
                kernel, n=n, crashes=crashes, record=record, timeout=timeout,
                scheduling=scheduling,
            )
            if kernel == "compiled-loop":
                assert sim.fused_path == "c-loop"
                sim._skip_span_rr = NeverCalled("_skip_span_rr")
                sim._skip_span_random = NeverCalled("_skip_span_random")
            elif segment == self.HORIZON:
                name = (
                    "_skip_span_rr" if scheduling == "round_robin"
                    else "_skip_span_random"
                )
                inner = getattr(sim, name)

                def spy(start, end, inner=inner):
                    spans.append((start, end))
                    inner(start, end)

                setattr(sim, name, spy)
            for t in range(segment, self.HORIZON + segment, segment):
                sim.run_until(min(t, self.HORIZON))
            views[kernel, segment] = _count_view(sim)
        reference = views["packed", self.HORIZON]
        assert reference["idle_ticks_skipped"] > 0
        for leg, view in views.items():
            assert view == reference, leg
        if case == "long-post-crash-spans":
            # some span after the first crash covers three whole blocks
            first_crash = min(crashes.values())
            assert any(
                start >= first_crash and end // n - -(-start // n) >= 3
                for start, end in spans
            )

    def test_record_full_still_hands_a_span_with_a_crash_to_python(self):
        sim = _random_sim(
            "compiled-loop", n=4, crashes={1: 300}, record="full",
            timeout=97, scheduling="round_robin",
        )
        spy = SpanSpy(sim)
        sim.run_until(self.HORIZON)
        assert spy.spans and all(end > 300 for __, end in spy.spans)


def _columns(store) -> dict:
    """Every column of ``store`` as plain lists, and its sparse keys."""
    view = {name: list(getattr(store, name)) for name in STEP_COLUMNS}
    view["_inputs"] = sorted(store._inputs.items())
    view["_outputs"] = sorted(store._outputs.items())
    return view


@pytest.mark.skipif(not HAS_COMPILED_LOOP, reason="C loop not built")
class TestStagedStoreWriter:
    """At record="full" the C loop stages rows and appends them to the
    StepStore in bulk: when its stage is full, before each ``_skip_span_rr``
    call and when a run call returns.  Across every kind of flush the store
    must hold what the Python fused loop and the naive stepper record."""

    HORIZON = 12_000
    CRASH = 8_000

    def _sim(self, kernel, engine="event"):
        sim = _fill_sim(
            kernel, engine, n=4, detector=True, crashes={1: self.CRASH}
        )
        # inputs (and so outputs) every 97 ticks: on both sides of every
        # flush boundary
        for k in range(self.HORIZON // 97):
            sim.add_input(k % 4, 3 + 97 * k, ("late", k))
        return sim

    def test_the_store_matches_across_flush_boundaries(self):
        rows = STAGE_ROWS
        oracle = self._sim("legacy", "naive")
        oracle.run_until(self.HORIZON)
        expected = _columns(oracle.run.steps)
        store = oracle.run.steps
        busy = sum(
            1 for i in range(len(store))
            if store._msg_sender[i] >= 0 or store._timeout[i] or store._sent[i]
        )
        assert busy >= 3 * rows
        for m in (1, 2, 3):
            for keys in (store._inputs, store._outputs):
                assert any(m * rows - rows <= p < m * rows for p in keys)
                assert any(m * rows <= p < m * rows + rows for p in keys)
        for kernel in ("compiled-loop", "packed"):
            whole = self._sim(kernel)
            spy = SpanSpy(whole)
            whole.run_until(self.HORIZON)
            if kernel == "compiled-loop":
                # the C loop fills every span before the crash itself; the
                # crash hands every later one to Python, between staged rows
                assert spy.spans and spy.spans[0][1] > self.CRASH
            cut = self._sim(kernel)
            for t in range(1, self.HORIZON + 1):
                cut.run_until(t)
            for sim in (whole, cut):
                assert_rectangular(sim.run.steps)
                assert _columns(sim.run.steps) == expected, kernel
                assert _fill_view(sim) == _fill_view(oracle), kernel

    def test_the_store_is_exact_between_run_calls_and_may_lag_inside_one(self):
        """What a detector (or handler, or observer) reading the store in
        the middle of a run call sees: on the Python fused loop every
        completed step, on the C loop up to a stage of rows fewer.  Between
        run calls both hold the same rows and ``run.end_time``."""
        sims, seen = {}, {}
        for kernel in ("compiled-loop", "packed"):
            sim = sims[kernel] = self._sim(kernel)
            notes = seen[kernel] = []
            inner = sim.detector.query

            def query(pid, t, sim=sim, notes=notes, inner=inner):
                notes.append((len(sim.run.steps), sim.run.end_time))
                return inner(pid, t)

            sim.detector.query = query
        c, py = sims["compiled-loop"], sims["packed"]
        for k in range(1, 7):
            for sim in (c, py):
                sim.run_until(self.HORIZON * k // 6)
            assert _columns(c.run.steps) == _columns(py.run.steps), k
            assert c.run.end_time == py.run.end_time, k
        lags = [
            (py_rows - c_rows, py_end - c_end)
            for (c_rows, c_end), (py_rows, py_end) in zip(
                seen["compiled-loop"], seen["packed"], strict=True
            )
        ]
        assert all(0 <= rows <= STAGE_ROWS and end >= 0 for rows, end in lags)
        assert max(rows for rows, _ in lags) > 0

    @pytest.mark.parametrize("blow", [False, True], ids=["return", "raise"])
    def test_a_failed_flush_leaves_the_store_as_it_was(self, blow):
        """A column exporting its buffer refuses to grow.  The flush cuts
        the columns it already extended back, and drops the staged rows'
        inputs and outputs: on a full stage (its BufferError escapes) and
        on the raise path (the original raise escapes)."""
        fuse = Fuse()
        sim = _failure_sim("compiled-loop", fuse, site="", record="full")
        sim.run_until(500)
        before = _columns(sim.run.steps)
        if blow:
            fuse.arm("on_message", 5)
        # _sent is the ninth of the ten columns the flush extends
        view = memoryview(sim.run.steps._sent)
        with pytest.raises(Boom if blow else BufferError) as raised:
            sim.run_until(100_000)
        view.release()
        assert_rectangular(sim.run.steps)
        assert _columns(sim.run.steps) == before
        assert_failed_for_good(sim, raised.value)


# ---------------------------------------------------------------------------
# fused_path / fused_reason: which loop runs, and why not the C one.
# ---------------------------------------------------------------------------


class TestFusedPathAndReason:
    @pytest.mark.parametrize("kernel", BUILT_KERNELS)
    def test_the_run_time_gate_is_part_of_the_answer(self, kernel):
        # run_until never enters a fused loop under the naive engine, or
        # under random scheduling when idle steps are materialized
        # (record="full", the default), whatever the rung: the path must
        # say so.
        for gate, reason in (
            ({"scheduling": "random"},
             "scheduling=random materializes idle steps"),
            ({"engine": "naive"}, "engine=naive"),
        ):
            sim = Simulation(
                [Chatter() for _ in range(3)], kernel=kernel, **gate
            )
            assert (sim.fused_path, sim.fused_reason) == (None, reason)
            sim.run_until(50)
            assert sim.metrics.fused_path is None
            assert sim.metrics.fused_reason == reason

    def test_random_scheduling_is_the_c_loop_or_the_generic_engine(self):
        # No Python fused loop exists for random scheduling: every rung
        # below the C loop steps generically and names the actual cause.
        def resolve(**kwargs):
            kwargs.setdefault("record", "metrics")
            sim = Simulation(
                [Chatter() for _ in range(3)], scheduling="random", **kwargs
            )
            return sim.fused_path, sim.fused_reason

        idle = (None, "scheduling=random materializes idle steps")
        assert resolve(record="full") == idle
        assert resolve(observers=[WantsIdle()]) == idle
        assert resolve(kernel="legacy", observers=[WantsIdle()]) == idle
        assert resolve(kernel="legacy") == (None, "legacy network")
        if not HAS_COMPILED:
            for spy_cls in (StepSpy, RawStepSpy, LogSpy):
                assert resolve(observers=[spy_cls()]) == (
                    None, "extension not loaded"
                )
            assert resolve() == (None, "extension not loaded")
            return
        for record in ("outputs", "metrics", "none"):
            assert resolve(record=record) == ("c-loop", None)
        assert resolve(observers=[StepSpy()]) == ("c-loop", None)
        assert resolve(observers=[RawStepSpy(), LogSpy()]) == ("c-loop", None)
        assert resolve(kernel="packed") == (None, "kernel=packed")

    def test_every_reason_on_the_ladder(self):
        top = ("c-loop", None) if HAS_COMPILED else (
            "python", "extension not loaded"
        )
        cases = [
            (dict(kernel="legacy"), (None, "legacy network")),
            (dict(kernel="legacy", observers=[LogSpy()]),
             (None, "legacy network")),
            (dict(kernel="legacy", observers=[StepSpy()]),
             (None, "legacy network")),
            (dict(observers=[StepSpy()]), top),
            (dict(observers=[RawStepSpy(), LogSpy()]), top),
            (dict(), top),
        ]
        if HAS_COMPILED:
            cases += [
                (dict(kernel="packed"), ("python", "kernel=packed")),
                (dict(kernel="packed", observers=[LogSpy()]),
                 ("python", "kernel=packed")),
                (dict(kernel="packed", observers=[StepSpy()]),
                 ("python", "kernel=packed")),
                (dict(observers=[LogSpy(), StepSpy()]), top),
            ]
        else:
            cases.append(
                (dict(kernel="packed", observers=[LogSpy()]),
                 ("python", "extension not loaded"))
            )
        for kwargs, expected in cases:
            sim = Simulation([Chatter() for _ in range(3)], **kwargs)
            assert (sim.fused_path, sim.fused_reason) == expected, kwargs

    def test_metrics_record_the_loop_each_run_call_took(self):
        sim = _loop_sim(DEFAULT_KERNEL)
        assert sim.metrics.fused_path is None  # nothing has run yet
        sim.run_until(100)
        assert sim.metrics.fused_path == sim.fused_path
        assert sim.metrics.fused_reason == sim.fused_reason
        spy = StepSpy()
        sim.attach_observer(spy)
        sim.run_steps(100)
        assert spy.seen  # a step observer moves no run off its loop
        assert sim.metrics.fused_path == sim.fused_path
        assert sim.metrics.fused_reason == sim.fused_reason
        sim.detach_observer(spy)
        sim.run_until_quiescent(max_time=sim.time + 10)
        assert (sim.metrics.fused_path, sim.metrics.fused_reason) == (
            None, "per-tick predicate",
        )
        assert sim.metrics.as_dict()["fused_reason"] == "per-tick predicate"
        # how a run was executed never makes two runs' metrics unequal
        other = _loop_sim("legacy")
        other.run_until(sim.time)
        assert other.metrics == sim.metrics
        assert other.metrics.fused_reason == "legacy network"


class Teller(Chatter):
    """Chatter with an output per message, so the digest sees the run."""

    def on_message(self, ctx, sender, payload):
        ctx.output(("heard", sender, payload[1]))


class TestOneStepHook:
    """Every loop hands an executed step to ``on_step_raw`` alone, so an
    observer of either step hook sees the naive stepper's steps on every
    rung — and moves no run off its loop."""

    HORIZON = 1_000

    @staticmethod
    def _run(spy_cls, kernel, engine, *, dense, scheduling, record):
        spy = spy_cls()
        observers = [spy] if dense else [spy, WantsIdle()]
        sim = Simulation(
            [Teller() for _ in range(4)],
            failure_pattern=FailurePattern(4, {3: 700}),
            delay_model=FixedDelay(2),
            # every live tick fires a timeout, or one in nine does and
            # WantsIdle has the event engine record the idle ones
            timeout_interval=1 if dense else 9,
            seed=5,
            scheduling=scheduling,
            record=record,
            kernel=kernel,
            engine=engine,
            observers=observers,
        )
        sim.run_until(TestOneStepHook.HORIZON)
        return sim, spy

    @pytest.mark.parametrize("record", ["none", "metrics", "full"])
    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "idle"])
    @pytest.mark.parametrize("spy_cls", [StepSpy, RawStepSpy])
    def test_every_rung_shows_a_one_hook_spy_the_naive_steppers_steps(
        self, spy_cls, dense, scheduling, record
    ):
        options = dict(dense=dense, scheduling=scheduling, record=record)
        oracle, oracle_spy = self._run(spy_cls, "legacy", "naive", **options)
        # every live tick is a step: 700 ticks of 4 processes, then 3
        assert len(oracle_spy.seen) == 700 + (self.HORIZON - 700) * 3 // 4
        assert [index for index, __, __ in oracle_spy.seen] == list(
            range(len(oracle_spy.seen))
        )
        materialized = not dense or record == "full"
        for kernel in BUILT_KERNELS:
            sim, spy = self._run(spy_cls, kernel, "event", **options)
            if kernel == "legacy" or (
                scheduling == "random" and (materialized or kernel == "packed")
            ):
                expected = None
            else:
                expected = "c-loop" if kernel == "compiled-loop" else "python"
            assert sim.fused_path == expected, (kernel, sim.fused_reason)
            assert spy.seen == oracle_spy.seen, kernel
            assert run_digest(sim) == run_digest(oracle), kernel
            assert sim.metrics == oracle.metrics, kernel
            assert sim.run == oracle.run, kernel


# ---------------------------------------------------------------------------
# Pickle / deepcopy: a sim interrupted on any rung resumes to the same run.
# ---------------------------------------------------------------------------


class TestPickleRoundTrip:
    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    @pytest.mark.parametrize("kernel", BUILT_LEGS)
    def test_round_trip_mid_run_reaches_the_uninterrupted_digest(
        self, kernel, scheduling
    ):
        import copy
        import pickle

        for seed in (3, 9):
            config = random_config(seed)
            config["scheduling"] = scheduling
            horizon = config["horizon"]
            whole = build_sim(config, **leg_options(kernel))
            whole.run_until(horizon)
            for clone in (
                lambda sim: pickle.loads(pickle.dumps(sim)),
                copy.deepcopy,
            ):
                sim = build_sim(config, **leg_options(kernel))
                sim.run_until(horizon // 2)
                resumed = clone(sim)
                assert resumed.kernel == sim.kernel
                if kernel == POOL_UNDER_PYTHON:
                    assert_pool_under_python(resumed)
                assert type(resumed.network) is type(sim.network)
                assert _state(resumed.network) == _state(sim.network)
                resumed.run_until(horizon)
                assert run_digest(resumed) == run_digest(whole)
                assert resumed.run == whole.run
                assert _state(resumed.network) == _state(whole.network)
                assert resumed.fused_path == whole.fused_path
                # the original is untouched by its copy's progress
                sim.run_until(horizon)
                assert run_digest(sim) == run_digest(whole)

    @pytest.mark.skipif(not HAS_COMPILED, reason="C extension not built")
    def test_pool_state_round_trips_slot_for_slot(self):
        import pickle

        shared = ["payload"]
        net, pool = scripted_pool(
            (0, 1, shared, 0, 10),
            (2, 1, None, 3, 5),  # None is a payload, not a free slot
            (0, 2, shared, 0, 9),
            (1, 0, "gone", 1, 3),
        )
        pool.pop_due_batch(0, 4, 1)  # leaves slot 3 on the free stack
        clone_net, twin = pickle.loads(pickle.dumps((net, shared)))
        clone = clone_net._pool
        assert clone.__getstate__() == pool.__getstate__()
        assert (clone.slots(), clone.free()) == (4, 1)
        clone_net.delay_model = ScriptedDelay(1)
        clone_net.send_packed(0, 0, "reuses-3", 4)
        assert (clone.slots(), clone.free()) == (4, 0)
        assert clone.pop_due_batch(1, 8, 1)[0] == [(8, 1, 2, 3, None)]
        # identity follows the memo
        assert clone.pop_due_batch(2, 99, 1)[0][0][4] is twin
        assert pool.free() == 1  # the original is independent

    @pytest.mark.skipif(not HAS_COMPILED, reason="C extension not built")
    def test_malformed_pool_state_is_refused(self):
        from repro.sim import _ckernel

        __, pool = scripted_pool((1, 0, "a", 1, 4), (1, 1, "b", 1, 5), n=2)
        deliver, seq, send_time, sender, payloads, free, shards = (
            pool.__getstate__()
        )
        good = (deliver, seq, send_time, sender, payloads, free, shards)
        for bad in (
            good[:6],                                    # a column missing
            (deliver[:1],) + good[1:],                   # ragged columns
            good[:5] + ([0], shards),                    # slot free AND live
            good[:6] + ([[0], [0]],),                    # slot in two shards
            good[:6] + ([[0], []],),                     # a slot nowhere
            good[:6] + ([[0], [7]],),                    # slot out of range
            good[:6] + ([[0]],),                         # wrong shard count
        ):
            fresh = _ckernel.Pool(2)
            with pytest.raises((ValueError, TypeError)):
                fresh.__setstate__(bad)
            assert (fresh.slots(), fresh.free()) == (0, 0)
        with pytest.raises(ValueError, match="empty pool"):
            pool.__setstate__(good)


# ---------------------------------------------------------------------------
# A raise ends the run: the failure contract on every leg.
# ---------------------------------------------------------------------------


class Boom(Exception):
    pass


class Fuse:
    """Arms one named call site to raise :class:`Boom`, once, ``after``
    further visits from now, and keeps what it raised."""

    def __init__(self) -> None:
        self.site = None
        self.after = 0
        self.raised = None

    def arm(self, site: str, after: int) -> None:
        self.site, self.after = site, after

    def check(self, site: str) -> None:
        if site == self.site:
            if self.after == 0:
                self.site = None
                self.raised = Boom(site)
                raise self.raised
            self.after -= 1


#: shared, watched values: every message, detector sample and input of the
#: failure-path sims is one of these objects, so a leaked reference shows.
PAYLOAD = ("beat",)
FD_VALUE = ("fd",)
INPUT = ("input",)


class FusedTalker(Process):
    def __init__(self, fuse: Fuse) -> None:
        self.fuse = fuse

    def on_start(self, ctx):
        self.fuse.check("on_start")

    def on_input(self, ctx, value):
        ctx.send_all(value)
        self.fuse.check("on_input")

    def on_timeout(self, ctx):
        ctx.send((ctx.pid + 1) % ctx.n, PAYLOAD)
        ctx.send_all(PAYLOAD, include_self=False)
        ctx.output(PAYLOAD)
        ctx.log(PAYLOAD)
        self.fuse.check("on_timeout")

    def on_message(self, ctx, sender, payload):
        self.fuse.check("on_message")


class FusedDelay:
    """FixedDelay(2) with a fuse in ``delay`` and, when ``vectorized``, in
    ``delay_profile`` (otherwise broadcasts take the per-receiver path)."""

    def __init__(self, fuse: Fuse, vectorized: bool) -> None:
        self.fuse = fuse
        if vectorized:
            self.delay_profile = self._profile

    def delay(self, sender, receiver, t):
        self.fuse.check("delay")
        return 2

    def _profile(self, sender, t, receivers):
        self.fuse.check("delay_profile")
        return [2] * len(receivers)


class FusedDetector:
    def __init__(self, fuse: Fuse) -> None:
        self.fuse = fuse

    def query(self, pid, t):
        self.fuse.check("detector")
        return FD_VALUE


class FusedRawObserver(SimObserver):
    def __init__(self, fuse: Fuse) -> None:
        self.fuse = fuse

    def on_step_raw(self, sim, *fields):
        self.fuse.check("raw_observer")

    def on_log(self, sim, t, pid, event):
        self.fuse.check("log_observer")


FAILURE_SITES = [
    "on_start", "on_input", "on_message", "on_timeout", "detector", "delay",
    "delay_profile", "raw_observer", "log_observer",
]


#: the legs a raise is checked on: every rung, the C pool under the generic
#: engine, and the naive stepper (on the Python pool).
FAILURE_LEGS = [*KERNELS, POOL_UNDER_PYTHON, "naive"]

needs_c_loop = pytest.mark.skipif(not HAS_COMPILED_LOOP, reason="C loop not built")

#: how often each site can blow in one run, where that is few
SITE_VISITS = {"on_start": 3, "on_input": 40}


def failure_legs() -> list:
    return [
        pytest.param(leg, marks=needs_c_loop) if "compiled" in leg else leg
        for leg in FAILURE_LEGS
    ]


#: what leaves a failure sim below record="full" idle spans, some of them
#: past a crash that follows the last input (the C loop counts them itself)
IDLE_SPANS = {"timeout": 40, "crashes": {2: 300}}


def _failure_sim(
    leg: str, fuse: Fuse, *, site: str, record: str = "metrics",
    scheduling: str = "round_robin", timeout: int | None = None,
    crashes: dict | None = None,
) -> Simulation:
    options = (
        {"kernel": "packed", "engine": "naive"} if leg == "naive"
        else leg_options(leg)
    )
    # record="full" appends to the store inline: no observer to blow
    observers = [] if record == "full" else [FusedRawObserver(fuse)]
    sim = Simulation(
        [FusedTalker(fuse) for _ in range(3)],
        delay_model=FusedDelay(fuse, vectorized=site != "delay"),
        detector=FusedDetector(fuse),
        failure_pattern=FailurePattern(3, crashes or {}),
        # saturated by default; at record="full" sparse enough to leave
        # idle spans, which the C loop fills into the store itself
        timeout_interval=timeout or (40 if record == "full" else 5),
        seed=2,
        scheduling=scheduling,
        message_batch=3,
        record=record,
        observers=observers,
        **options,
    )
    for k in range(40):
        sim.add_input(k % 3, 7 * k, INPUT)
    return sim


#: every run call, as a failed simulation is asked to make it
RUN_CALLS = {
    "run_until": lambda sim: sim.run_until(sim.time + 10),
    "run_steps": lambda sim: sim.run_steps(10),
    "run_until_quiescent": lambda sim: sim.run_until_quiescent(),
    "step": lambda sim: sim.step(),
}


def assert_failed_for_good(sim: Simulation, exc: BaseException) -> None:
    """``exc`` failed ``sim``: every run call refuses, chained to it,
    without moving the clock."""
    assert sim.failed is exc
    t = sim.time
    for name, call in RUN_CALLS.items():
        with pytest.raises(SimulationFailed) as refused:
            call(sim)
        assert refused.value.__cause__ is exc, name
        assert sim.time == t, name
    assert sim.failed is exc


def _full_stage_arms() -> list:
    """``(site, after)`` arms of a record="full" :func:`_failure_sim` that
    blow in the step of row ``m * STAGE_ROWS``: its first ``on_message``
    or its ``on_timeout``.  No span goes back to Python in that run, so
    the C loop's stage is full when it raises."""
    probe = _failure_sim("compiled-loop", Fuse(), site="", record="full")
    probe.run_until(32 * STAGE_ROWS)
    store = probe.run.steps
    arms = []
    for row in range(STAGE_ROWS, len(store), STAGE_ROWS):
        if store._received[row]:
            arms.append(("on_message", sum(store._received[:row])))
        if store._timeout[row]:
            arms.append(("on_timeout", sum(store._timeout[:row])))
    assert arms
    return arms


class TestARaiseEndsTheRun:
    @pytest.mark.parametrize("leg", failure_legs())
    @pytest.mark.parametrize(
        "site,record,scheduling",
        [(site, "metrics", "round_robin") for site in FAILURE_SITES]
        + [
            (site, "full", "round_robin")
            for site in FAILURE_SITES if "observer" not in site
        ]
        + [(site, "metrics", "random") for site in FAILURE_SITES],
    )
    def test_the_raise_escapes_and_every_later_run_call_refuses(
        self, leg, site, record, scheduling
    ):
        fuse = Fuse()
        sim = _failure_sim(
            leg, fuse, site=site, record=record, scheduling=scheduling
        )
        if leg == "compiled-loop":
            assert sim.fused_path == "c-loop"
        elif leg == POOL_UNDER_PYTHON:
            assert_pool_under_python(sim)
        fuse.arm(site, SITE_VISITS.get(site, 20) - 1)
        with pytest.raises(Boom, match=site) as raised:
            sim.run_until(100_000)
        assert raised.value is fuse.raised
        assert_failed_for_good(sim, raised.value)

    @pytest.mark.parametrize(
        "site", [site for site in FAILURE_SITES if "observer" not in site]
    )
    def test_at_record_full_the_store_keeps_exactly_the_completed_steps(
        self, site
    ):
        legs = [
            leg for leg in FAILURE_LEGS
            if HAS_COMPILED_LOOP or "compiled" not in leg
        ]
        visits = SITE_VISITS.get(site, 100)
        for after in sorted({a % visits for a in (0, 4, 5, 19, 57, 98)}):
            sims = {}
            for leg in legs:
                fuse = Fuse()
                sim = _failure_sim(leg, fuse, site=site, record="full")
                fuse.arm(site, after)
                with pytest.raises(Boom):
                    sim.run_until(100_000)
                store = sim.run.steps
                assert_rectangular(store)
                assert sim._step_index == len(store) == len(list(store)), (
                    leg, after,
                )
                sims[leg] = sim
            if HAS_COMPILED_LOOP:
                c, py = sims["compiled-loop"], sims["packed"]
                assert _columns(c.run.steps) == _columns(py.run.steps), after
                assert c.run == py.run, after
                marks = [
                    (sim.time, sim.last_live_tick, sim._step_index)
                    for sim in (c, py)
                ]
                assert marks[0] == marks[1], after

    @needs_c_loop
    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    @pytest.mark.parametrize(
        "site", [site for site in FAILURE_SITES if "observer" not in site]
    )
    def test_the_idle_counters_survive_a_raise(self, site, scheduling):
        visits = SITE_VISITS.get(site, 100)
        for after in sorted({a % visits for a in (0, 5, 19, 57, 98)}):
            marks = {}
            for leg in ("compiled-loop", "packed"):
                fuse = Fuse()
                sim = _failure_sim(
                    leg, fuse, site=site, scheduling=scheduling, **IDLE_SPANS
                )
                fuse.arm(site, after)
                with pytest.raises(Boom):
                    sim.run_until(100_000)
                marks[leg] = (
                    sim.time, sim.last_live_tick,
                    sim.metrics.idle_ticks_skipped,
                )
            assert marks["compiled-loop"] == marks["packed"], after

    @pytest.mark.parametrize("call", ["step", "run_until_quiescent"])
    def test_a_raise_out_of_a_per_tick_run_call_fails_it_too(self, call):
        fuse = Fuse()
        sim = _failure_sim("packed", fuse, site="on_message")
        with pytest.raises(Boom) as raised:
            if call == "step":
                fuse.arm("on_message", 5)
                while True:
                    sim.step()
            else:
                sim.step()  # p0's first input broadcasts to all three
                fuse.arm("on_message", 2)  # the last of those deliveries
                sim.run_until_quiescent()
        assert_failed_for_good(sim, raised.value)

    @pytest.mark.parametrize("leg", failure_legs())
    def test_arguments_refused_before_the_loop_do_not_fail_it(self, leg):
        sim = _failure_sim(leg, Fuse(), site="on_message")
        sim.run_until(50)
        for bad in (-1, 2.5, True):
            with pytest.raises(ValueError):
                sim.run_until(bad)
        with pytest.raises(ValueError):
            sim.run_steps(-51)
        assert sim.failed is None and sim.time == 50
        assert sim.run_until(100) is sim.run and sim.time == 100

    @needs_c_loop
    @pytest.mark.parametrize(
        "scheduling,record",
        [("round_robin", "metrics"), ("random", "metrics"),
         ("round_robin", "full"), ("round_robin", "none")],
        ids=["round_robin", "random", "round_robin-full", "round_robin-none"],
    )
    def test_no_reference_leaks_over_1e5_ticks_of_raising_runs(
        self, scheduling, record
    ):
        import gc
        import sys

        fuse = Fuse()
        # Each failed simulation is dropped, and a reference the C loop
        # leaked would keep alive something that leads back to one of
        # these: the processes hold the fuse, the messages the payload,
        # the input queues the input, the store the detector samples.
        watched = [
            fuse, PAYLOAD, INPUT, FD_VALUE, FusedTalker,
            FusedTalker.on_message, FusedTalker.on_timeout,
        ]
        sites = [
            site for site in FAILURE_SITES
            if record != "full" or "observer" not in site
        ]

        # at record="full" the C loop stages rows and flushes them to the
        # store on the raise path: add runs that blow with a full stage
        full_stage = _full_stage_arms() if record == "full" else []

        def growth(run) -> tuple:
            """How much run() grows the watched objects' reference counts
            and the interpreter's allocated blocks, after a collection."""
            # the last failure's exception, and through its traceback its
            # simulation, are the fuse's by design
            fuse.raised = None
            gc.collect()
            refs = [sys.getrefcount(obj) for obj in watched]
            blocks = sys.getallocatedblocks()
            run()
            fuse.raised = None
            gc.collect()
            blocks = sys.getallocatedblocks() - blocks
            after = [sys.getrefcount(obj) for obj in watched]
            return [a - r for a, r in zip(after, refs)], blocks

        def arms():
            for k in itertools.count():
                site = sites[k % len(sites)]
                # blow anywhere from the first visit to the hundredth:
                # executed steps, mid-batch pops, broadcasts, idle spans
                yield site, k % SITE_VISITS.get(site, 100), True
                if full_stage and k % len(sites) == 0:
                    # not counted, so the runs above keep their number
                    yield *full_stage[k // len(sites) % len(full_stage)], False

        def churn(ticks):
            ran = full = 0
            for site, after, counted in arms():
                if ran >= ticks:
                    break
                sim = _failure_sim(
                    "compiled-loop", fuse, site=site, record=record,
                    scheduling=scheduling,
                    **(IDLE_SPANS if record == "none" else {}),
                )
                assert sim.fused_path == "c-loop"
                fuse.arm(site, after)
                with pytest.raises(Boom):
                    sim.run_until(100_000)
                ran += sim.time if counted else 0
                if record == "full":
                    store = sim.run.steps
                    assert_rectangular(store)
                    full += len(store) > 0 and len(store) % STAGE_ROWS == 0
            assert full or record != "full"
            return ran

        churn(1_000)  # every path taken a few times: caches warm
        # The watched reference counts must come back exactly.  The
        # allocated blocks are held to a short churn's growth instead: that
        # holds the blocks measuring itself accounts for, which a leak per
        # raising run would exceed.
        refs, blocks = growth(lambda: churn(100_000))
        assert refs == [0] * len(watched)
        assert blocks == growth(lambda: churn(1_000))[1]


# ---------------------------------------------------------------------------
# Random scheduling on the C loop: the same run as the generic engine's.
# ---------------------------------------------------------------------------


def reference_permutation(seed: int, block: int, n: int) -> list[int]:
    """Block ``block``'s schedule, spelled out from the definition (not
    imported from ``repro``): the schedule both
    ``Simulation._permutation_for_block`` and the C loop are held to.

    splitmix64's output function keyed on the tag word ``b"blk-perm"``,
    then the seed, then the block, each mod 2**64; Fisher–Yates with
    ``j = (mix(key ^ i) * (i + 1)) >> 64``."""
    word = 2**64 - 1

    def mix(z: int) -> int:
        z = (z + 0x9E3779B97F4A7C15) % 2**64
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return z ^ (z >> 31)

    key = mix(int.from_bytes(b"blk-perm", "big"))
    for part in (seed, block):
        key = mix(key ^ (part & word))
    permutation = list(range(n))
    for i in reversed(range(1, n)):
        j = mix(key ^ i) * (i + 1) // 2**64
        permutation[i], permutation[j] = permutation[j], permutation[i]
    return permutation


class ScheduleSpy(SimObserver):
    """Notes which process executed at which tick."""

    def __init__(self) -> None:
        self.schedule: list[tuple[int, int]] = []

    def on_step_raw(self, sim, index, t, pid, *rest):
        self.schedule.append((t, pid))


class Mixer(Process):
    """Broadcasts, point-to-point sends, outputs and log lines, all a pure
    function of what the process has seen."""

    def __init__(self) -> None:
        self.seen = 0

    def on_input(self, ctx, value):
        ctx.send_all(("input", value))
        ctx.output(("accepted", value))

    def on_timeout(self, ctx):
        ctx.send((ctx.pid + 1) % ctx.n, ("beat", ctx.time))
        ctx.log(("beat", ctx.time))

    def on_message(self, ctx, sender, payload):
        self.seen += 1
        if self.seen % 4 == 0:
            ctx.send_all(("echo", self.seen), include_self=False)
        if payload[0] == "input":
            ctx.output(("delivered", sender, payload[1]))


#: every leg of the random-scheduling matrix; the first is the seed oracle.
RANDOM_LEGS = [("legacy", "naive")] + [(k, "event") for k in BUILT_KERNELS]


def _random_sim(
    kernel, engine="event", *, n, crashes=None, record="metrics", seed=11,
    timeout=23, batch=1, cls=Mixer, scheduling="random",
):
    sim = Simulation(
        [cls() for __ in range(n)],
        failure_pattern=FailurePattern(n, crashes or {}),
        delay_model=make_env("flaky", seed=seed).delay,
        seed=seed,
        timeout_interval=timeout,
        scheduling=scheduling,
        message_batch=batch,
        engine=engine,
        kernel=kernel,
        record=record,
    )
    for k in range(12):
        sim.add_input(k % n, 3 + 41 * k, ("op", k))
    return sim


def _run_view(sim: Simulation) -> dict:
    """What a run leaves behind, minus the executed/idle step split (the
    naive engine executes the idle ticks the event engine skips)."""
    view = {
        "digest": run_digest(sim),
        "run": sim.run,
        "time": sim.time,
        "last_live_tick": sim.last_live_tick,
        "network": _state(sim.network),
        "next_timeout": list(sim._next_timeout),
    }
    if sim.record_level == "metrics":  # the level that fills RunMetrics
        metrics = sim.metrics
        view["ticks"] = metrics.steps + metrics.idle_ticks_skipped
        view["counters"] = (
            metrics.messages_sent, metrics.messages_received,
            metrics.timeouts_fired, metrics.inputs, metrics.outputs,
            metrics.end_time,
        )
    return view


def _assert_legs_agree(sims: dict) -> None:
    oracle = _run_view(sims["legacy", "naive"])
    reference = sims["packed", "event"]
    for leg, sim in sims.items():
        kernel, engine = leg
        assert _run_view(sim) == oracle, leg
        if engine == "event":
            assert sim.metrics == reference.metrics, leg
            python_loop = "python" if sim.scheduling == "round_robin" else None
            assert sim.fused_path == {
                "compiled-loop": "c-loop", "packed": python_loop,
            }.get(kernel), leg


class TestRandomSchedulingOnTheCLoop:
    @pytest.mark.parametrize("seed", [0, 7, 4_294_967_311, -3, 2**64 + 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17, 33, 64, 257])
    def test_block_permutations_are_bit_for_bit_the_definition(self, n, seed):
        # timeout_interval=1 makes every tick an executed step, so the
        # executed steps spell out the schedule each implementation derived:
        # the generic engine's (kernel="packed") and, where built, the C
        # loop's own derivation.
        for first in (0, 2**32 - 1):
            blocks = range(first, first + 3)  # 0, 1, 2 and 2**32 - 1, +0, +1
            want = [
                (block * n + slot, pid)
                for block in blocks
                for slot, pid in enumerate(reference_permutation(seed, block, n))
            ]
            for kernel in ("packed", DEFAULT_KERNEL):
                spy = ScheduleSpy()
                sim = Simulation(
                    [Process() for __ in range(n)],
                    seed=seed,
                    timeout_interval=1,
                    scheduling="random",
                    record="none",
                    kernel=kernel,
                    observers=[spy],
                )
                sim.time = first * n
                sim.run_until((first + 3) * n)
                assert spy.schedule == want, (kernel, first)
                assert sim.fused_path == (
                    "c-loop" if kernel == "compiled-loop" else None
                )
            oracle = Simulation(
                [Process() for __ in range(n)], seed=seed, scheduling="random"
            )
            for block in blocks:
                assert oracle._permutation_for_block(block) == (
                    reference_permutation(seed, block, n)
                )

    @pytest.mark.parametrize("record", ["outputs", "metrics"])
    @pytest.mark.parametrize(
        "n,crashes,batch",
        [
            (5, {}, 1),
            (5, {3: 37}, 1),                           # boundary mid-block
            (5, {0: 200, 1: 35, 3: 36, 4: 611}, 3),    # all but one crash
            (4, {0: 0, 2: 1}, 1),                      # dead from the start
            (1, {}, 1),
            (2, {1: 301}, 1),
        ],
    )
    def test_every_rung_computes_the_naive_engines_run(
        self, n, crashes, batch, record
    ):
        sims = {
            (kernel, engine): _random_sim(
                kernel, engine, n=n, crashes=crashes, batch=batch, record=record
            )
            for kernel, engine in RANDOM_LEGS
        }
        for sim in sims.values():
            sim.run_until(1_503)
        _assert_legs_agree(sims)

    def test_segment_edges_inside_a_block_change_nothing(self):
        # The ruler drives a run as 200 run_until segments: most edges fall
        # mid-block, and the t_end of one call is the start of the next.
        horizon = 7_013
        whole = {
            (kernel, engine): _random_sim(kernel, engine, n=5, crashes={2: 5_000})
            for kernel, engine in RANDOM_LEGS
        }
        for sim in whole.values():
            sim.run_until(horizon)
        _assert_legs_agree(whole)
        for kernel in BUILT_KERNELS:
            cut = _random_sim(kernel, n=5, crashes={2: 5_000})
            for k in range(1, 201):
                cut.run_until(horizon * k // 200)
            assert _run_view(cut) == _run_view(whole[kernel, "event"]), kernel
            assert cut.metrics == whole[kernel, "event"].metrics

    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    def test_every_leg_agrees_at_n_257(self, scheduling):
        # One cursor scan answers every next-event query at any n: idle
        # spans (timeouts longer than a round) and crash-gated events on a
        # system wider than any workload runs.
        n = 257
        sims = {
            (kernel, engine): _random_sim(
                kernel, engine, n=n, crashes={5: 900, n - 1: 2_000},
                timeout=401, cls=Chatter, scheduling=scheduling,
            )
            for kernel, engine in RANDOM_LEGS
        }
        for sim in sims.values():
            sim.run_until(8 * n + 50)
        assert sims["packed", "event"].metrics.idle_ticks_skipped > 0
        _assert_legs_agree(sims)

    def test_an_add_input_from_inside_a_handler_is_seen(self):
        # Simulation.add_input lowers _local_event in the middle of a run;
        # a loop that mirrored the index would sleep through the input.
        class Nudger(Mixer):
            sim = None

            def on_timeout(self, ctx):
                super().on_timeout(ctx)
                self.sim.add_input(
                    (ctx.pid + 2) % ctx.n, ctx.time + 1, ("nudge", ctx.time)
                )

        sims = {}
        for kernel, engine in RANDOM_LEGS:
            sim = _random_sim(
                kernel, engine, n=5, crashes={4: 700}, record="outputs",
                timeout=61, cls=Nudger,
            )
            for process in sim.processes:
                process.sim = sim
            sim.run_until(2_000)
            sims[kernel, engine] = sim
        _assert_legs_agree(sims)
        accepted = sims["legacy", "naive"].run.output_history
        assert any(
            value[1][0] == "nudge"
            for history in accepted.values() for __, value in history
            if value[0] == "accepted"
        )

    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    @pytest.mark.parametrize("record", ["none", "metrics", "outputs"])
    def test_idle_counters_are_current_whenever_python_is_called(
        self, record, scheduling
    ):
        # Handlers and observers read sim.metrics / sim.last_live_tick in
        # the middle of a run: what the C loop counts over an idle span or
        # accumulates while walking a block must be written through before
        # it calls out.
        class Peeker(Mixer):
            sim = None
            peeks = None

            def on_timeout(self, ctx):
                super().on_timeout(ctx)
                sim = self.sim
                self.peeks.append((
                    ctx.time, sim.time, sim.last_live_tick,
                    sim.metrics.idle_ticks_skipped,
                ))

        seen = {}
        for kernel in BUILT_KERNELS:
            sim = _random_sim(
                kernel, n=5, crashes={1: 310}, cls=Peeker, record=record,
                scheduling=scheduling,
            )
            peeks: list = []
            for process in sim.processes:
                process.sim, process.peeks = sim, peeks
            sim.run_until(1_200)
            seen[kernel] = peeks
        assert seen["packed"] and seen["packed"][-1][3] > 0
        for kernel in BUILT_KERNELS:
            assert seen[kernel] == seen["packed"], kernel

    def test_per_tick_run_calls_step_generically(self):
        # run_steps is run_until by another name; run_until_quiescent
        # re-evaluates a predicate at every tick.
        sims = {
            kernel: _random_sim(kernel, n=4, crashes={3: 150})
            for kernel in BUILT_KERNELS
        }
        for kernel, sim in sims.items():
            top = "c-loop" if kernel == "compiled-loop" else None
            sim.run_steps(130)
            assert sim.metrics.fused_path == sim.fused_path == top
            sim.run_until(300)
            assert sim.metrics.fused_path == top
            sim.run_until_quiescent(max_time=340)
            assert (sim.metrics.fused_path, sim.metrics.fused_reason) == (
                None, "per-tick predicate",
            )
            sim.step()
            sim.run_steps(77)
        reference = _run_view(sims["legacy"])
        for kernel, sim in sims.items():
            assert _run_view(sim) == reference, kernel
            assert sim.metrics == sims["legacy"].metrics


class Queried:
    """A duck-typed history with ``query`` alone (no ``settles``), logging
    every query: the simulation must ask it at every sampled tick."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.log: list[tuple[int, int]] = []

    def query(self, pid, t):
        self.log.append((pid, t))
        return self.inner.query(pid, t)


class CountedOmega(OmegaHistory):
    """An Omega history that logs the queries it is asked."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.log: list[tuple[int, int]] = []

    def query(self, pid, t):
        self.log.append((pid, t))
        return super().query(pid, t)


#: Omega's settle tick: mid-run and strictly inside an idle span of the
#: round-robin schedule below (timeouts every 40 ticks, broadcasts sparse),
#: so a span split one tick off its place changes the recorded samples.
SETTLE_AT = 310
SETTLE_SPEC = RunSpec(
    n=4,
    duration=1_200,
    protocol="etob",
    tau=SETTLE_AT,
    inputs=tuple((p % 4, 20 + 90 * p, ("broadcast", f"m{p}")) for p in range(10)),
    timeout_interval=40,
    record="full",
)


def _settle_sim(detector_of, **options):
    spec = replace(SETTLE_SPEC, **options)
    sim = build_simulation(spec, detector=detector_of(protocol_detector(spec)))
    sim.run_until(spec.duration)
    return sim


class TestSettledDetector:
    """From the tick its history settles at (``settles()``), no loop queries
    the detector; the settled value must be what the queries would have
    answered, on every rung, engine and schedule."""

    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    def test_a_mid_run_settle_runs_as_the_queried_history(self, scheduling):
        oracle = _settle_sim(
            Queried, kernel="legacy", engine="naive", scheduling=scheduling
        )
        want = (run_digest(oracle), _columns(oracle.run.steps))
        assert oracle.detector.log  # the oracle queried every step
        for kernel, engine in itertools.product(BUILT_KERNELS, ("event", "naive")):
            for detector_of in (lambda h: h, Queried):
                sim = _settle_sim(
                    detector_of, kernel=kernel, engine=engine, scheduling=scheduling
                )
                got = (run_digest(sim), _columns(sim.run.steps))
                assert got == want, (kernel, engine, detector_of)

    @pytest.mark.parametrize("kernel", BUILT_KERNELS)
    @pytest.mark.parametrize("record", ["full", "metrics"])
    def test_only_a_history_without_settles_is_queried_at_every_step(
        self, kernel, record
    ):
        def counted(history):
            return CountedOmega(history.pattern, stabilization_time=SETTLE_AT)

        queried = _settle_sim(Queried, kernel=kernel, record=record)
        settled = _settle_sim(counted, kernel=kernel, record=record)
        if record == "full":
            steps = [(s.pid, s.time) for s in queried.run.steps]
        else:
            steps = queried.detector.log
            assert len(steps) == queried.metrics.steps
        assert queried.detector.log == steps
        assert settled.detector.log == [(p, t) for p, t in steps if t < SETTLE_AT]
        assert run_digest(settled) == run_digest(queried)


def _sparse_adversary(ticks: int, n: int = 16, seed: int = 1) -> Simulation:
    """The ruler's sparse_adversary shape: 16 ETOB processes on flaky links,
    random scheduling, one crash, 40 broadcasts around Omega's settle
    tick (ticks // 8)."""
    pattern = FailurePattern(n, {n - 1: 3 * ticks // 4})
    sim = Simulation(
        [ProtocolStack([EtobLayer()]) for __ in range(n)],
        failure_pattern=pattern,
        detector=OmegaDetector(stabilization_time=ticks // 8).history(
            pattern, seed=seed
        ),
        delay_model=make_env("flaky", seed=seed).delay,
        seed=seed,
        timeout_interval=256,
        scheduling="random",
        record="metrics",
    )
    step = ticks // 1000
    for i in range(40):
        sim.add_input(
            i % (n - 1), ticks // 8 + (i - 20) * step, ("broadcast", f"m{i}")
        )
    return sim


@pytest.mark.skipif(not HAS_COMPILED_LOOP, reason="C loop not built")
def test_an_executed_step_costs_at_most_two_and_a_fifth_python_calls():
    # What a step pays in Python: the layer's handler, about one per step.
    # The loop runs the stack's dispatch itself (no ProtocolStack frame),
    # the Omega read is C (no LayerContext.omega frame), no detector query
    # once Omega settled, one delay-profile call per broadcast. The count
    # is deterministic (2.04 per step), so it guards the fixed cost itself.
    sim = _sparse_adversary(100_000)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        sim.run_until(100_000)
    finally:
        sys.setprofile(None)
    assert sim.fused_path == "c-loop"
    steps = sim.metrics.steps
    assert steps > 10_000
    assert calls <= 2.2 * steps, calls / steps
