"""Kernel tests: the packed struct-of-arrays data plane is observationally
identical to the legacy ``Network``, on both the network API and whole runs.

Four pillars:

- a hypothesis differential driving the legacy ``Network`` and the packed
  pool side by side through random send/send_all/pop/batch-pop/crash/tick
  interleavings, asserting identical envelopes, counters, and horizon state
  at every step (the compiled pool joins when the extension is built);
- whole-run differentials over the randomized scenario space of
  ``test_engine_differential`` pinning byte-identical :class:`RunRecord`
  objects across ``kernel="legacy" | "packed" | "compiled" |
  "compiled-loop"`` under both ``round_robin`` and ``random`` scheduling
  and both engines;
- unit coverage for the kernel selection flag and the tunable heap
  self-compaction threshold (``compact_factor``) it exposes;
- the extension guard (``repro.sim._compiled``): a build is accepted only
  with the digest of the ``_ckernel.c`` beside it, and refused with one
  warning otherwise;
- direct unit tests of the compiled ``Pool`` shard ordering and slot
  recycling, skipped when the extension is not built;
- compiled-loop rung coverage: the engagement/degradation ladder
  (``sim.fused_path``) under every observer capability, including
  mid-lifetime :meth:`attach_observer` / :meth:`detach_observer`, and
  skipif-gated ``run_loop`` / ``pop_due_batch`` unit tests mirroring the
  ``Pool`` units.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

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
    SimObserver,
    Simulation,
    StepStore,
    make_env,
    make_network,
    run_digest,
)
from repro.sim.errors import ConfigurationError
from repro.sim.types import NEVER, stable_hash

from test_engine_differential import build_sim, random_config, run_sim

#: kernels exercised by the whole-run differentials; the compiled rungs
#: join when a C extension matching its source loaded, and their absence
#: is covered separately.
BUILT_KERNELS = [
    k for k in KERNELS if k not in ("compiled", "compiled-loop") or HAS_COMPILED
]


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


def _state(net: Network) -> dict:
    return {
        "next": [net.next_delivery_time(r) for r in range(net.n)],
        "transit": [net.in_transit(r) for r in range(net.n)],
        "horizon": net.horizon_peek(),
        "sent": net.sent_count,
        "delivered": net.delivered_count,
        "live_pending": net.live_pending,
    }


class TestPackedPoolDifferential:
    """Drive every built pool implementation in lockstep with the legacy
    queue-of-Envelopes network and require indistinguishable behaviour."""

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
                    ["send", "send_all", "pop", "pop_batch", "crash", "tick"]
                ),
                min_size=1,
                max_size=50,
            ),
            label="ops",
        )
        for op in ops:
            if op == "send":
                sender = data.draw(st.integers(0, n - 1))
                receiver = data.draw(st.integers(0, n - 1))
                results = [
                    net.send(sender, receiver, ("m", t), t) for net in nets
                ]
                assert all(env == results[0] for env in results[1:])
            elif op == "send_all":
                sender = data.draw(st.integers(0, n - 1))
                include_self = data.draw(st.booleans())
                results = [
                    net.send_all(sender, "m", t, include_self=include_self)
                    for net in nets
                ]
                assert all(envs == results[0] for envs in results[1:])
            elif op == "pop":
                receiver = data.draw(st.integers(0, n - 1))
                peeks = [net.peek_deliverable(receiver, t) for net in nets]
                results = [net.pop_deliverable(receiver, t) for net in nets]
                assert all(env == results[0] for env in results[1:])
                assert peeks == results  # peek previews exactly the pop
            elif op == "pop_batch":
                receiver = data.draw(st.integers(0, n - 1))
                limit = data.draw(st.integers(1, 4))
                results = [
                    net.pop_deliverable_batch(receiver, t, limit)
                    for net in nets
                ]
                assert all(envs == results[0] for envs in results[1:])
            elif op == "crash":
                victim = data.draw(st.integers(0, n - 1))
                for net in nets:
                    net.mark_crashed(victim)
            else:  # tick
                t += data.draw(st.integers(1, 12))
            reference = _state(nets[0])
            for net in nets[1:]:
                assert _state(net) == reference

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_pop_equals_repeated_single_pops(self, data):
        # Satellite pin: pop_deliverable_batch is observationally the same
        # as calling the legacy single pop `limit` times, on every kernel.
        n = data.draw(st.integers(min_value=2, max_value=4), label="n")
        kernel = data.draw(st.sampled_from(BUILT_KERNELS), label="kernel")
        batch = make_network(n, SometimesNeverDelay(seed=n), kernel=kernel)
        single = make_network(n, SometimesNeverDelay(seed=n), kernel=kernel)
        t = 0
        for step in range(data.draw(st.integers(1, 30), label="steps")):
            sender = data.draw(st.integers(0, n - 1))
            receiver = data.draw(st.integers(0, n - 1))
            batch.send(sender, receiver, step, t)
            single.send(sender, receiver, step, t)
            if data.draw(st.booleans()):
                t += data.draw(st.integers(1, 10))
            target = data.draw(st.integers(0, n - 1))
            limit = data.draw(st.integers(1, 5))
            popped = batch.pop_deliverable_batch(target, t, limit)
            expected = []
            for _ in range(limit):
                envelope = single.pop_deliverable(target, t)
                if envelope is None:
                    break
                expected.append(envelope)
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
        runs = {}
        for kernel in BUILT_KERNELS:
            sim = run_sim(
                build_sim(config, engine="event", kernel=kernel), config
            )
            runs[kernel] = sim
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
            assert sim.rng.getstate() == reference.rng.getstate()

    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    @pytest.mark.parametrize("kernel", BUILT_KERNELS)
    def test_naive_engine_runs_on_every_kernel(self, kernel, scheduling):
        # With test_all_kernels_byte_identical tying the kernels together
        # under the event engine, this completes the full
        # kernel x scheduling x engine byte-equality matrix.
        config = random_config(4)
        config["scheduling"] = scheduling
        naive = run_sim(
            build_sim(config, engine="naive", kernel=kernel), config
        )
        event = run_sim(
            build_sim(config, engine="event", kernel=kernel), config
        )
        assert naive.run == event.run

    @pytest.mark.parametrize("kernel", BUILT_KERNELS)
    def test_observers_see_identical_traffic(self, kernel):
        # Send/deliver observers force the envelope-materializing compat
        # paths; the traffic they see must not depend on the kernel.
        from test_engine_differential import CountingObserver

        config = random_config(6)
        counts = {}
        for k in ("legacy", kernel):
            observer = CountingObserver()
            sim = run_sim(
                build_sim(
                    config, engine="event", observers=[observer], kernel=k
                ),
                config,
            )
            counts[k] = (
                observer.steps,
                observer.sends,
                observer.delivers,
                observer.logs,
                sim.network.sent_count,
            )
        assert counts[kernel] == counts["legacy"]


# ---------------------------------------------------------------------------
# Kernel selection flag and the tunable compaction threshold.
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
        from repro.sim import ReplayPlan, replay_simulation
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
        assert ReplayPlan(n=2, duration=1).kernel == DEFAULT_KERNEL

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

    def test_scenario_builder_passthrough(self):
        from repro.scenario import Scenario

        sim = Scenario(2, seed=0).etob().kernel("legacy").build()
        assert type(sim.network) is Network
        assert Scenario(2, seed=0).etob().build().kernel == DEFAULT_KERNEL
        assert Scenario(2, seed=0).etob().kernel("packed").build().kernel == "packed"

    def test_explicit_network_wins_over_kernel_flag(self):
        net = Network(2, FixedDelay(1))
        sim = Simulation([Chatter() for _ in range(2)], network=net)
        assert sim.network is net

    def test_compiled_kernel_requires_the_extension(self, monkeypatch):
        import repro.sim.kernel as kernel_mod

        monkeypatch.setattr(kernel_mod, "HAS_COMPILED", False)
        with pytest.raises(ConfigurationError, match="compiled"):
            Simulation([Chatter() for _ in range(2)], kernel="compiled")

    @pytest.mark.skipif(not HAS_COMPILED, reason="C extension not built")
    def test_compiled_kernel_builds_pool_network(self):
        sim = Simulation([Chatter() for _ in range(2)], kernel="compiled")
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


class TestCompactFactor:
    def test_caps_derive_from_the_factor(self):
        sim = Simulation(
            [Chatter() for _ in range(3)], compact_factor=7, kernel="legacy"
        )
        assert sim.compact_factor == 7
        assert sim.network._horizon_cap == max(64, 7 * 3)
        assert sim._local_cap == max(64, 7 * 3)

    def test_invalid_factor_rejected(self):
        with pytest.raises(ConfigurationError, match="compact_factor"):
            Simulation([Chatter() for _ in range(2)], compact_factor=0)
        with pytest.raises(ValueError, match="compact_factor"):
            Network(2, compact_factor=-3)

    @pytest.mark.parametrize("kernel", BUILT_KERNELS)
    @pytest.mark.parametrize("factor", [1, 4, 32])
    def test_heaps_stay_bounded_at_any_factor(self, kernel, factor):
        # The self-compaction sweep the benchmarks rely on: whatever the
        # factor, lazy deletions never accumulate past the derived cap.
        n = 3
        sim = Simulation(
            [Chatter() for _ in range(n)],
            delay_model=FixedDelay(1),
            timeout_interval=2,
            compact_factor=factor,
            kernel=kernel,
            record="none",
        )
        sim.run_until(5_000)
        cap = max(64, factor * n)
        assert sim.network._horizon_cap == cap
        assert sim.network.delivered_count > 1_000
        assert len(sim.network._horizon) <= cap + 1
        assert len(sim._local_horizon) <= sim._local_cap + 1

    @pytest.mark.parametrize("factor", [1, 16])
    def test_factor_does_not_change_the_run(self, factor):
        config = random_config(8)
        tuned = run_sim(
            build_sim(config, engine="event", compact_factor=factor), config
        )
        stock = run_sim(build_sim(config, engine="event"), config)
        assert tuned.run == stock.run


# ---------------------------------------------------------------------------
# Compiled pool unit behaviour.
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not HAS_COMPILED, reason="C extension not built")
class TestCompiledPool:
    def make_pool(self):
        from repro.sim import _ckernel

        return _ckernel.Pool(3)

    def test_orders_by_deliver_at_then_seq(self):
        pool = self.make_pool()
        pool.push(1, 10, 5, 0, 0, "late")
        pool.push(1, 8, 6, 0, 0, "early")
        pool.push(1, 8, 2, 0, 0, "earlier-seq")
        assert pool.peek(1) == (8, 2, 0, 0, "earlier-seq")
        assert pool.pop_due(1, 20) == (8, 2, 0, 0, "earlier-seq", 8)
        assert pool.pop_due(1, 20) == (8, 6, 0, 0, "early", 10)
        assert pool.pop_due(1, 20) == (10, 5, 0, 0, "late", -1)
        assert pool.pop_due(1, 20) is None

    def test_pop_due_respects_time(self):
        pool = self.make_pool()
        pool.push(0, 7, 0, 1, 2, "x")
        assert pool.pop_due(0, 6) is None
        assert pool.pop_due(0, 7) == (7, 0, 1, 2, "x", -1)

    def test_slot_recycling(self):
        pool = self.make_pool()
        pool.push(0, 1, 0, 0, 0, "a")
        pool.push(1, 2, 1, 0, 0, "b")
        assert (pool.slots(), pool.free()) == (2, 0)
        pool.pop_due(0, 5)
        assert (pool.slots(), pool.free()) == (2, 1)
        pool.push(2, 3, 2, 0, 0, "c")  # reuses the freed slot
        assert (pool.slots(), pool.free()) == (2, 0)

    def test_push_many_matches_single_pushes(self):
        many, single = self.make_pool(), self.make_pool()
        payload = ("beat", 4)
        many.push_many(1, 4, 10, [0, 2], [9, 6], payload)
        single.push(0, 9, 10, 1, 4, payload)
        single.push(2, 6, 11, 1, 4, payload)
        for receiver in (0, 2):
            assert many.pop_due(receiver, 99) == single.pop_due(receiver, 99)

    def test_payload_identity_preserved(self):
        pool = self.make_pool()
        payload = {"mutable": []}
        pool.push(0, 1, 0, 0, 0, payload)
        assert pool.peek(0)[4] is payload
        assert pool.pop_due(0, 1)[4] is payload

    def test_errors(self):
        pool = self.make_pool()
        with pytest.raises(IndexError):
            pool.peek(0)
        with pytest.raises(IndexError):
            pool.push(3, 1, 0, 0, 0, "x")
        with pytest.raises(ValueError):
            pool.push_many(0, 0, 0, [0, 1], [5], "x")

    def test_pop_due_batch_matches_repeated_pop_due(self):
        batch, single = self.make_pool(), self.make_pool()
        for pool in (batch, single):
            pool.push(1, 8, 6, 0, 0, "early")
            pool.push(1, 10, 5, 0, 0, "late")
            pool.push(1, 8, 2, 0, 0, "earlier-seq")
            pool.push(1, 99, 9, 0, 0, "future")
        items, new_head, live_drop = batch.pop_due_batch(1, 10, 3)
        expected = [single.pop_due(1, 10)[:5] for _ in range(3)]
        assert items == expected
        assert new_head == 99  # the first still-undue message
        assert live_drop == 3  # every popped message was live
        # Drained of due messages: empty batch, head unchanged.
        assert batch.pop_due_batch(1, 10, 4) == ([], 99, 0)

    def test_pop_due_batch_respects_time_and_limit(self):
        pool = self.make_pool()
        pool.push(0, 5, 0, 1, 2, "a")
        pool.push(0, 6, 1, 1, 2, "b")
        assert pool.pop_due_batch(0, 4, 10) == ([], 5, 0)
        items, new_head, live_drop = pool.pop_due_batch(0, 5, 10)
        assert items == [(5, 0, 1, 2, "a")]
        assert (new_head, live_drop) == (6, 1)
        assert pool.pop_due_batch(2, 10, 1) == ([], -1, 0)  # empty shard

    def test_pop_due_batch_errors(self):
        pool = self.make_pool()
        with pytest.raises(IndexError):
            pool.pop_due_batch(5, 1, 1)
        with pytest.raises(TypeError):
            pool.pop_due_batch(0, 1)


# ---------------------------------------------------------------------------
# Compiled tick loop: the engagement ladder and run_loop unit behaviour.
# ---------------------------------------------------------------------------


class StepSpy(SimObserver):
    """Step observer WITHOUT the raw hook: forces materialized dispatch."""

    def __init__(self) -> None:
        self.steps = 0

    def on_step(self, sim, record):
        self.steps += 1


class SendSpy(SimObserver):
    def __init__(self) -> None:
        self.sends = 0

    def on_send(self, sim, envelope):
        self.sends += 1


class DeliverSpy(SimObserver):
    def __init__(self) -> None:
        self.delivers = 0

    def on_deliver(self, sim, envelope):
        self.delivers += 1


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


def _loop_sim(kernel, observers=(), cls=Chatter, n=3):
    return Simulation(
        [cls() for _ in range(n)],
        delay_model=FixedDelay(2),
        timeout_interval=3,
        seed=5,
        record="metrics",
        kernel=kernel,
        observers=list(observers),
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

    def test_attach_detach_restores_fused_path(self):
        sim = _loop_sim("packed")
        assert sim.fused_path == "python"
        spy = StepSpy()
        sim.attach_observer(spy)
        assert sim.fused_path is None  # non-raw step observer: generic loop
        sim.detach_observer(spy)
        assert sim.fused_path == "python"

    def test_mid_run_attach_does_not_change_the_trajectory(self):
        watched, plain = _loop_sim("packed"), _loop_sim("packed")
        watched.run_until(1_000)
        spy = StepSpy()
        watched.attach_observer(spy)
        watched.run_until(2_000)
        watched.detach_observer(spy)
        watched.run_until(3_000)
        plain.run_until(3_000)
        assert run_digest(watched) == run_digest(plain)
        assert spy.steps > 0


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

    def test_lower_rungs_never_take_the_c_loop(self):
        assert _loop_sim("legacy").fused_path is None
        assert _loop_sim("packed").fused_path == "python"
        assert _loop_sim("compiled").fused_path == "python"

    @pytest.mark.parametrize("spy_cls", [SendSpy, DeliverSpy])
    def test_envelope_observers_degrade_to_the_python_loop(self, spy_cls):
        # The C loop never materializes the Envelope views these hooks
        # receive, so their presence must drop one rung — with identical
        # trajectories and identical observations on both rungs.
        c_spy, py_spy = spy_cls(), spy_cls()
        c = _loop_sim("compiled-loop", [c_spy])
        py = _loop_sim("packed", [py_spy])
        assert c.fused_path == "python"
        c.run_until(2_000)
        py.run_until(2_000)
        assert run_digest(c) == run_digest(py)
        assert vars(c_spy) == vars(py_spy)

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

    def test_attach_detach_toggles_the_c_loop_mid_run(self):
        c, py = _loop_sim("compiled-loop"), _loop_sim("packed")
        c_spy, py_spy = StepSpy(), StepSpy()
        c.run_until(1_000)
        py.run_until(1_000)
        assert c.fused_path == "c-loop"
        c.attach_observer(c_spy)
        py.attach_observer(py_spy)
        assert c.fused_path is None  # non-raw observer: generic engine
        c.run_until(2_000)
        py.run_until(2_000)
        c.detach_observer(c_spy)
        py.detach_observer(py_spy)
        assert c.fused_path == "c-loop"
        c.run_until(3_000)
        py.run_until(3_000)
        assert run_digest(c) == run_digest(py)
        assert c_spy.steps == py_spy.steps > 0

    def test_run_loop_arity_and_type_errors(self):
        from repro.sim import _ckernel

        with pytest.raises(TypeError):
            _ckernel.run_loop()
        with pytest.raises(TypeError):
            _ckernel.run_loop(1, 2)
        with pytest.raises(AttributeError):
            _ckernel.run_loop(object(), 10, None)

    def test_handler_errors_match_the_python_loop(self):
        class Boom(Process):
            def on_timeout(self, ctx):
                raise RuntimeError("boom")

            def on_message(self, ctx, sender, payload):
                pass

        outcomes = {}
        for kernel in ("packed", "compiled-loop"):
            sim = _loop_sim(kernel, cls=Boom)
            with pytest.raises(RuntimeError, match="boom"):
                sim.run_until(100)
            outcomes[kernel] = (sim.time, sim.network.sent_count)
        assert outcomes["packed"] == outcomes["compiled-loop"]


# ---------------------------------------------------------------------------
# fused_path / fused_reason: which loop runs, and why not the C one.
# ---------------------------------------------------------------------------


class RawStepSpy(SimObserver):
    """Step observer WITH the raw hook: keeps every fused loop engaged."""

    def __init__(self) -> None:
        self.steps = 0

    def on_step(self, sim, record):
        self.steps += 1

    def on_step_raw(self, sim, *fields):
        self.steps += 1


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
        class IdleSpy(SimObserver):
            wants_idle_steps = True

        def resolve(**kwargs):
            kwargs.setdefault("record", "metrics")
            sim = Simulation(
                [Chatter() for _ in range(3)], scheduling="random", **kwargs
            )
            return sim.fused_path, sim.fused_reason

        idle = (None, "scheduling=random materializes idle steps")
        assert resolve(record="full") == idle
        assert resolve(observers=[IdleSpy()]) == idle
        assert resolve(kernel="legacy", observers=[IdleSpy()]) == idle
        assert resolve(kernel="legacy") == (None, "legacy network")
        assert resolve(observers=[StepSpy()]) == (
            None, "non-raw step observer: StepSpy"
        )
        if not HAS_COMPILED:
            assert resolve() == (None, "extension not loaded")
            assert resolve(observers=[SendSpy()]) == (
                None, "extension not loaded"
            )
            return
        for record in ("outputs", "metrics", "none"):
            assert resolve(record=record) == ("c-loop", None)
        assert resolve(observers=[RawStepSpy(), LogSpy()]) == ("c-loop", None)
        assert resolve(kernel="packed") == (None, "kernel=packed")
        assert resolve(kernel="compiled") == (None, "kernel=compiled")
        assert resolve(network=PackedNetwork(3, FixedDelay(1))) == (
            None, "network=PackedNetwork"
        )
        assert resolve(observers=[DeliverSpy()]) == (
            None, "send/deliver observer: DeliverSpy"
        )

    def test_every_reason_on_the_ladder(self):
        top = ("c-loop", None) if HAS_COMPILED else (
            "python", "extension not loaded"
        )
        cases = [
            (dict(kernel="legacy"), (None, "legacy network")),
            (dict(network=Network(3, FixedDelay(1))), (None, "legacy network")),
            (dict(observers=[StepSpy()]),
             (None, "non-raw step observer: StepSpy")),
            (dict(observers=[RawStepSpy(), LogSpy()]), top),
            (dict(), top),
        ]
        if HAS_COMPILED:
            cases += [
                (dict(kernel="packed"), ("python", "kernel=packed")),
                (dict(kernel="compiled"), ("python", "kernel=compiled")),
                (dict(network=PackedNetwork(3, FixedDelay(1))),
                 ("python", "network=PackedNetwork")),
                (dict(observers=[SendSpy()]),
                 ("python", "send/deliver observer: SendSpy")),
                (dict(observers=[LogSpy(), DeliverSpy()]),
                 ("python", "send/deliver observer: DeliverSpy")),
            ]
        else:
            cases.append(
                (dict(kernel="packed", observers=[SendSpy()]),
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
        assert sim.metrics.fused_path is None
        assert sim.metrics.fused_reason == "non-raw step observer: StepSpy"
        sim.detach_observer(spy)
        sim.run_while(lambda s: True, max_time=sim.time + 10)
        assert (sim.metrics.fused_path, sim.metrics.fused_reason) == (
            None, "per-tick predicate",
        )
        assert sim.metrics.as_dict()["fused_reason"] == "per-tick predicate"
        # how a run was executed never makes two runs' metrics unequal
        other = _loop_sim("legacy")
        other.run_until(sim.time)
        assert other.metrics == sim.metrics
        assert other.metrics.fused_reason == "legacy network"


# ---------------------------------------------------------------------------
# Pickle / deepcopy: a sim interrupted on any rung resumes to the same run.
# ---------------------------------------------------------------------------


class TestPickleRoundTrip:
    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    @pytest.mark.parametrize("kernel", BUILT_KERNELS)
    def test_round_trip_mid_run_reaches_the_uninterrupted_digest(
        self, kernel, scheduling
    ):
        import copy
        import pickle

        for seed in (3, 9):
            config = random_config(seed)
            config["scheduling"] = scheduling
            horizon = config["horizon"]
            whole = build_sim(config, engine="event", kernel=kernel)
            whole.run_until(horizon)
            for clone in (
                lambda sim: pickle.loads(pickle.dumps(sim)),
                copy.deepcopy,
            ):
                sim = build_sim(config, engine="event", kernel=kernel)
                sim.run_until(horizon // 2)
                resumed = clone(sim)
                assert resumed.kernel == kernel
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

        from repro.sim import _ckernel

        pool = _ckernel.Pool(3)
        shared = ["payload"]
        pool.push(1, 10, 0, 0, 0, shared)
        pool.push(1, 8, 1, 2, 3, None)  # None is a payload, not a free slot
        pool.push(2, 9, 2, 0, 0, shared)
        pool.push(0, 4, 3, 1, 1, "gone")
        pool.pop_due(0, 4)  # leaves slot 3 on the free stack
        clone, twin = pickle.loads(pickle.dumps((pool, shared)))
        assert clone.__getstate__() == pool.__getstate__()
        assert (clone.slots(), clone.free()) == (4, 1)
        assert clone.peek(1) == (8, 1, 2, 3, None)
        clone.push(0, 5, 4, 0, 0, "reuses-3")
        assert (clone.slots(), clone.free()) == (4, 0)
        assert clone.pop_due(2, 99)[4] is twin  # identity follows the memo
        assert pool.free() == 1  # the original is independent

    @pytest.mark.skipif(not HAS_COMPILED, reason="C extension not built")
    def test_malformed_pool_state_is_refused(self):
        from repro.sim import _ckernel

        pool = _ckernel.Pool(2)
        pool.push(0, 5, 0, 1, 1, "a")
        pool.push(1, 6, 1, 1, 1, "b")
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
# run_loop failure paths: every user exception crosses C by default now.
# ---------------------------------------------------------------------------


class Boom(Exception):
    pass


class Fuse:
    """Arms one named call site to raise :class:`Boom`, once, ``after``
    further visits from now. Call order is identical on every rung, so the
    same arming blows at the same step everywhere."""

    def __init__(self) -> None:
        self.site = None
        self.after = 0

    def arm(self, site: str, after: int) -> None:
        self.site, self.after = site, after

    def check(self, site: str) -> None:
        if site == self.site:
            if self.after == 0:
                self.site = None
                raise Boom(site)
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
        self.steps = 0

    def on_step(self, sim, record):
        self.steps += 1

    def on_step_raw(self, sim, *fields):
        self.steps += 1
        self.fuse.check("raw_observer")

    def on_log(self, sim, t, pid, event):
        self.fuse.check("log_observer")


FAILURE_SITES = [
    "on_start", "on_input", "on_message", "on_timeout", "detector", "delay",
    "delay_profile", "raw_observer", "log_observer",
]


def _failure_sim(
    kernel: str, *, vectorized: bool, record: str = "metrics",
    scheduling: str = "round_robin",
):
    fuse = Fuse()
    sim = Simulation(
        [FusedTalker(fuse) for _ in range(3)],
        delay_model=FusedDelay(fuse, vectorized),
        detector=FusedDetector(fuse),
        timeout_interval=5,
        seed=2,
        scheduling=scheduling,
        # random scheduling's oracle (Simulation.step) pops a whole batch
        # before it calls a handler: a raise must lose the same messages
        message_batch=3 if scheduling == "random" else 1,
        record=record,
        kernel=kernel,
        observers=[] if record == "full" else [FusedRawObserver(fuse)],
    )
    for k in range(40):
        sim.add_input(k % 3, 7 * k, INPUT)
    return sim, fuse


def _engine_state(sim: Simulation) -> dict:
    net = sim.network
    return {
        "time": sim.time,
        "step_index": sim._step_index,
        "last_live_tick": sim.last_live_tick,
        "started": sorted(sim._started),
        "next_timeout": list(sim._next_timeout),
        "local_event": list(sim._local_event),
        "next_at": list(net._next_at),
        "pending": list(net._pending),
        "live": list(net._live),
        "live_pending": net.live_pending,
        "sent": net.sent_count,
        "delivered": net.delivered_count,
        "next_seq": net._next_seq,
        "pool": (net.pool_slots, net.pool_free),
        "horizon": net.horizon_peek(),
        "metrics": sim.metrics,
        "run": sim.run,
    }


@pytest.mark.skipif(not HAS_COMPILED_LOOP, reason="C loop not built")
class TestRunLoopFailurePaths:
    @pytest.mark.parametrize(
        "site,record,scheduling",
        [(site, "metrics", "round_robin") for site in FAILURE_SITES]
        # record="full" appends to the store inline: no observer to blow
        + [
            (site, "full", "round_robin")
            for site in FAILURE_SITES if "observer" not in site
        ]
        # random scheduling at record="full" is not the C loop's
        + [(site, "metrics", "random") for site in FAILURE_SITES],
    )
    def test_a_raise_leaves_exactly_what_the_python_loop_leaves(
        self, site, record, scheduling
    ):
        vectorized = site != "delay"
        sims = {
            kernel: _failure_sim(
                kernel, vectorized=vectorized, record=record,
                scheduling=scheduling,
            )
            for kernel in ("packed", "compiled", "compiled-loop")
        }
        assert sims["compiled-loop"][0].fused_path == "c-loop"
        # the oracle: the Python fused loop, or — there is none for random
        # scheduling — the generic engine
        assert sims["packed"][0].fused_path == (
            "python" if scheduling == "round_robin" else None
        )
        # on_start runs once per process: it can only blow at the next one
        afters = (0, 0, 0) if site == "on_start" else (0, 7, 23)
        for round_, after in enumerate(afters):
            states = {}
            for kernel, (sim, fuse) in sims.items():
                fuse.arm(site, after)
                with pytest.raises(Boom, match=site):
                    sim.run_until(100_000)
                states[kernel] = _engine_state(sim)
            for kernel in ("compiled", "compiled-loop"):
                assert states[kernel] == states["packed"], (kernel, round_)
        # ... and the wreckage is coherent enough to carry on identically.
        for sim, __ in sims.values():
            sim.run_until(sim.time + 500)
        digests = {kernel: run_digest(sim) for kernel, (sim, __) in sims.items()}
        assert len(set(digests.values())) == 1
        states = {k: _engine_state(sim) for k, (sim, __) in sims.items()}
        assert states["compiled-loop"] == states["compiled"] == states["packed"]

    @pytest.mark.parametrize("scheduling", ["round_robin", "random"])
    def test_no_reference_leaks_over_1e5_ticks_of_raising_runs(self, scheduling):
        import gc
        import sys

        sim, fuse = _failure_sim(
            "compiled-loop", vectorized=True, scheduling=scheduling
        )
        per_receiver, __ = _failure_sim("compiled-loop", vectorized=False)
        per_receiver.network.delay_model.fuse = fuse
        model = sim.network.delay_model
        watched = [
            sim, sim.network, sim._ctx, sim.detector, model, fuse,
            sim._observers[-1], *sim.processes, FusedTalker.on_message,
            FusedTalker.on_timeout, FD_VALUE, sim.metrics,
        ]

        def counts():
            gc.collect()
            # messages in flight and inputs not yet due hold the shared
            # values legitimately: count those holders out
            in_flight = sim.network._pool.__getstate__()[4]
            queued = [v for queue in sim._inputs for __, __, v in queue]
            # what a step that raised had buffered stays in the context
            ctx = sim._ctx
            queued += [v for __, v in ctx._outbox] + ctx._outputs + ctx._log
            held = {
                id(obj): sum(v is obj for v in in_flight + queued)
                for obj in (PAYLOAD, INPUT)
            }
            del in_flight, queued
            return [sys.getrefcount(obj) for obj in watched] + [
                sys.getrefcount(obj) - held[id(obj)]
                for obj in (PAYLOAD, INPUT)
            ]

        def churn(ticks):
            end = sim.time + ticks
            for k in itertools.count():
                if sim.time >= end:
                    return
                site = FAILURE_SITES[k % len(FAILURE_SITES)]
                if site == "delay":
                    sim.network.delay_model = per_receiver.network.delay_model
                fuse.arm(site, k % 5)
                try:
                    sim.run_until(sim.time + 100)
                except Boom:
                    pass
                sim.network.delay_model = model
                sim.add_input(k % 3, sim.time + 3, INPUT)

        churn(1_000)  # every path taken a few times: caches warm
        before = counts()
        raised = sim.metrics.steps
        churn(100_000)
        assert sim.metrics.steps - raised > 30_000  # it did run, and fail
        assert sim.fused_path == "c-loop"
        assert counts() == before


# ---------------------------------------------------------------------------
# Random scheduling on the C loop: the same run as the generic engine's.
# ---------------------------------------------------------------------------


def reference_permutation(seed: int, block: int, n: int) -> list[int]:
    """Block ``block``'s schedule, spelled out: the definition both
    ``Simulation._permutation_for_block`` and the C loop are held to."""
    permutation = list(range(n))
    random.Random(stable_hash("block-permutation", seed, block)).shuffle(
        permutation
    )
    return permutation


class ScheduleSpy(SimObserver):
    """Raw-capable: notes which process executed at which tick."""

    def __init__(self) -> None:
        self.schedule: list[tuple[int, int]] = []

    def on_step(self, sim, record):
        self.schedule.append((record.time, record.pid))

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
    timeout=23, batch=1, cls=Mixer,
):
    sim = Simulation(
        [cls() for __ in range(n)],
        failure_pattern=FailurePattern(n, crashes or {}),
        delay_model=make_env("flaky", seed=seed).delay,
        seed=seed,
        timeout_interval=timeout,
        scheduling="random",
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
            assert sim.fused_path == (
                "c-loop" if kernel == "compiled-loop" else None
            ), leg


class TestRandomSchedulingOnTheCLoop:
    @pytest.mark.parametrize("seed", [0, 7, 4_294_967_311])
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

    def test_above_the_scan_cutover_the_heap_query_answers(self):
        from repro.sim.kernel import SCAN_EVENT_CUTOVER

        n = SCAN_EVENT_CUTOVER + 1
        sims = {
            (kernel, engine): _random_sim(
                kernel, engine, n=n, crashes={5: 900, n - 1: 2_000},
                timeout=97, cls=Chatter,
            )
            for kernel, engine in RANDOM_LEGS
        }
        for sim in sims.values():
            assert sim._scan_cutover < n
            sim.run_until(4 * n + 50)
        _assert_legs_agree(sims)
        # ... and the two idle queries agree with each other on one sim size
        forced = {}
        for cutover in (0, SCAN_EVENT_CUTOVER):
            sim = _random_sim(DEFAULT_KERNEL, n=6, crashes={1: 444})
            sim._scan_cutover = cutover
            sim.run_until(3_000)
            forced[cutover] = _run_view(sim), sim.metrics
        assert forced[0] == forced[SCAN_EVENT_CUTOVER]

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

    def test_idle_counters_are_current_whenever_python_is_called(self):
        # Handlers and observers read sim.metrics / sim.last_live_tick in
        # the middle of a run: what the C loop accumulates while walking a
        # block must be written through before it calls out.
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
            sim = _random_sim(kernel, n=5, crashes={1: 310}, cls=Peeker)
            peeks: list = []
            for process in sim.processes:
                process.sim, process.peeks = sim, peeks
            sim.run_until(1_200)
            seen[kernel] = peeks
        assert seen["packed"]
        for kernel in BUILT_KERNELS:
            assert seen[kernel] == seen["packed"], kernel

    def test_per_tick_run_calls_step_generically(self):
        # run_steps is run_until by another name; run_while and
        # run_until_quiescent re-evaluate a predicate at every tick.
        sims = {
            kernel: _random_sim(kernel, n=4, crashes={3: 150})
            for kernel in BUILT_KERNELS
        }
        for kernel, sim in sims.items():
            top = "c-loop" if kernel == "compiled-loop" else None
            sim.run_steps(130)
            assert sim.metrics.fused_path == sim.fused_path == top
            sim.run_while(lambda s: s.time < 210)
            assert (sim.metrics.fused_path, sim.metrics.fused_reason) == (
                None, "per-tick predicate",
            )
            sim.run_until(300)
            assert sim.metrics.fused_path == top
            sim.run_until_quiescent(max_time=340)
            assert sim.metrics.fused_reason == "per-tick predicate"
            sim.step()
            sim.run_steps(77)
        reference = _run_view(sims["legacy"])
        for kernel, sim in sims.items():
            assert _run_view(sim) == reference, kernel
            assert sim.metrics == sims["legacy"].metrics
