"""Tests for the content-addressed campaign result cache
(:mod:`repro.analysis.cache`): key scheme, store/journal crash-safety,
hit/miss purity across workers × backends, journal resume after worker
death, code-digest invalidation, and byte-identical report regeneration."""

import json
import os
import time
from functools import partial
from pathlib import Path

import pytest

from repro.analysis.cache import (
    Journal,
    ResultCache,
    ResultStore,
    cache_gc,
    cache_stats,
    cache_verify,
    cell_key,
    compute_code_version,
    main as cache_main,
    runner_identity,
)
from repro.analysis.experiments import Campaign, sweep_rows
from repro.suite import ScenarioSuite, SuiteExecutionError, SuiteProgress

KEYS = ["EXP-5", "EXP-10c"]  # cheap experiments, as in test_campaign
SEEDS = [0, 1]


def logged_cell(*, seed, log_dir):
    """Appends one line per execution, so tests can count real executions
    across worker processes."""
    with open(Path(log_dir) / f"{seed}.log", "a") as handle:
        handle.write("x\n")
    return seed * 7


def failing_cell(*, seed, log_dir):
    with open(Path(log_dir) / f"{seed}.log", "a") as handle:
        handle.write("x\n")
    raise ValueError(f"boom {seed}")


def die_once_cell(*, seed, log_dir):
    """Kills its worker process outright on the first run (marker absent);
    completes normally on the rerun. The non-dying cells are instant, so
    they complete and journal before the pool breaks."""
    if seed == 99:
        marker = Path(log_dir) / "died-once"
        if not marker.exists():
            marker.write_text("")
            time.sleep(0.8)
            os._exit(23)
    return logged_cell(seed=seed, log_dir=log_dir)


def executions(log_dir):
    return sum(
        len(path.read_text().splitlines()) for path in Path(log_dir).glob("*.log")
    )


def logged_suite(log_dir, seeds=(0, 1, 2, 3), runner=logged_cell):
    return (
        ScenarioSuite(runner, name="logged")
        .axis("log_dir", [str(log_dir)])
        .seeds(list(seeds))
    )


class TestKeyScheme:
    def test_runner_identity_unwraps_partial(self):
        base = runner_identity(logged_cell)
        bound = runner_identity(partial(logged_cell, seed=1))
        assert base in bound and base != bound
        assert runner_identity(partial(logged_cell, "a")) != runner_identity(
            partial(logged_cell, "b")
        )

    def test_key_covers_code_runner_and_params_only(self):
        digest, payload = cell_key("c1", logged_cell, {"seed": 0})
        again, __ = cell_key("c1", logged_cell, {"seed": 0})
        assert digest == again
        assert cell_key("c2", logged_cell, {"seed": 0})[0] != digest
        assert cell_key("c1", failing_cell, {"seed": 0})[0] != digest
        assert cell_key("c1", logged_cell, {"seed": 1})[0] != digest
        # the canonical payload is what --verify re-derives the digest from
        import hashlib

        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    def test_code_version_tracks_file_bytes(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "b.py").write_text("y = 2\n")
        first = compute_code_version(tmp_path)
        assert first == compute_code_version(tmp_path)  # stable
        (tmp_path / "pkg" / "a.py").write_text("x = 3\n")
        edited = compute_code_version(tmp_path)
        assert edited != first
        (tmp_path / "pkg" / "c.py").write_text("")
        assert compute_code_version(tmp_path) != edited  # new file counts

    def test_code_version_tracks_c_sources_but_not_builds(self, tmp_path):
        """The extension computes drawn values, so its source is code like
        any other; the built ``.so`` is not (a rebuild keeps the cache)."""
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "a.py").write_text("x = 1\n")
        without_c = compute_code_version(tmp_path)
        (tmp_path / "sim" / "_k.c").write_bytes(b"int f(void) { return 1; }\n")
        first = compute_code_version(tmp_path)
        assert first != without_c
        (tmp_path / "sim" / "_k.c").write_bytes(b"int f(void) { return 2; }\n")
        edited = compute_code_version(tmp_path)
        assert edited != first
        (tmp_path / "sim" / "_k.cpython-311-x86_64-linux-gnu.so").write_bytes(b"\x7fELF")
        (tmp_path / "sim" / "_k.o").write_bytes(b"\x7fELF")
        assert compute_code_version(tmp_path) == edited

    def test_default_code_version_digests_the_repro_package(self):
        import repro

        expected = compute_code_version(Path(repro.__file__).parent)
        assert ResultCache(root="/tmp/unused").code_version == expected


class TestStoreAndJournal:
    def test_store_roundtrip_and_corrupt_read_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 32, {"digest": "ab" * 32, "value": 42})
        assert store.get("ab" * 32)["value"] == 42
        assert store.get("cd" * 32) is None
        path = next(iter(store.entries()))[1]
        path.write_bytes(b"not a pickle")
        assert store.get("ab" * 32) is None  # corrupt entry reads as a miss

    def test_journal_roundtrip_and_truncated_tail_tolerated(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append("d1", {"value": 1})
        journal.append("d2", {"value": 2})
        journal.close()
        assert {k: v["value"] for k, v in journal.entries().items()} == {
            "d1": 1,
            "d2": 2,
        }
        # Simulate a crash mid-append: a torn final line is skipped, the
        # fsynced prefix survives.
        text = (tmp_path / "j.jsonl").read_text()
        (tmp_path / "j.jsonl").write_text(text + text[: len(text) // 3])
        entries = journal.entries()
        assert {k: v["value"] for k, v in entries.items()} == {"d1": 1, "d2": 2}
        journal.clear()
        assert journal.entries() == {}


class TestSuiteCaching:
    def test_warm_rerun_executes_zero_cells(self, tmp_path):
        log = tmp_path / "log"
        log.mkdir()
        cache = ResultCache(tmp_path / "store", code_version="c1")
        cold = logged_suite(log).run(workers=0, cache=cache)
        assert cold.ok and executions(log) == 4
        assert all(cell.cached == "miss" for cell in cold.cells)
        warm = logged_suite(log).run(
            workers=0, cache=ResultCache(tmp_path / "store", code_version="c1")
        )
        assert executions(log) == 4  # nothing re-ran
        assert all(cell.cached == "hit" for cell in warm.cells)
        assert warm.values() == cold.values()
        # served results carry the original run's wall_time, so any
        # timing-derived aggregate reproduces exactly
        assert [c.wall_time for c in warm.cells] == [
            c.wall_time for c in cold.cells
        ]

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("backend", ["stream", "batch"])
    def test_hit_miss_purity_across_workers_and_backends(
        self, tmp_path, workers, backend
    ):
        # Populate serially once, then serve warm under every execution
        # strategy: identical values, zero executions, all hits.
        log = tmp_path / "log"
        log.mkdir()
        root = tmp_path / "store"
        reference = logged_suite(log).run(
            workers=0, cache=ResultCache(root, code_version="c1")
        )
        baseline = executions(log)
        warm = logged_suite(log).run(
            workers=workers,
            backend=backend,
            cache=ResultCache(root, code_version="c1"),
        )
        assert executions(log) == baseline
        assert warm.values() == reference.values()
        assert all(cell.cached == "hit" for cell in warm.cells)

    @pytest.mark.parametrize("workers,backend", [(2, "stream"), (2, "batch")])
    def test_cold_parallel_runs_populate_the_same_store(
        self, tmp_path, workers, backend
    ):
        # A cold parallel run must store exactly what a serial run stores:
        # the key is content-addressed, never positional.
        log = tmp_path / "log"
        log.mkdir()
        root = tmp_path / "store"
        cold = logged_suite(log).run(
            workers=workers, backend=backend,
            cache=ResultCache(root, code_version="c1"),
        )
        assert cold.ok
        serial_root = tmp_path / "store-serial"
        logged_suite(log).run(
            workers=0, cache=ResultCache(serial_root, code_version="c1")
        )
        digests = lambda r: sorted(d for d, __ in ResultStore(r).entries())
        assert digests(root) == digests(serial_root)

    def test_failed_cells_are_never_cached(self, tmp_path):
        log = tmp_path / "log"
        log.mkdir()
        root = tmp_path / "store"
        suite = lambda: logged_suite(log, seeds=(0,), runner=failing_cell)
        first = suite().run(workers=0, cache=ResultCache(root, code_version="c1"))
        assert not first.ok and executions(log) == 1
        second = suite().run(workers=0, cache=ResultCache(root, code_version="c1"))
        assert not second.ok and executions(log) == 2  # re-executed
        assert second.cells[0].cached == "miss"

    def test_code_digest_bump_invalidates_old_entries(self, tmp_path):
        log = tmp_path / "log"
        log.mkdir()
        root = tmp_path / "store"
        logged_suite(log).run(workers=0, cache=ResultCache(root, code_version="v1"))
        assert executions(log) == 4
        bumped = ResultCache(root, code_version="v2")
        result = logged_suite(log).run(workers=0, cache=bumped)
        assert executions(log) == 8  # edited code => every cell re-runs
        assert all(cell.cached == "miss" for cell in result.cells)
        assert bumped.stats.hits == 0 and bumped.stats.misses == 4

    def test_interrupted_serial_run_resumes_from_journal(self, tmp_path):
        log = tmp_path / "log"
        log.mkdir()
        root = tmp_path / "store"

        def kill_after(result, done, total):
            if done >= 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            logged_suite(log).run(
                workers=0,
                cache=ResultCache(root, code_version="c1"),
                progress=kill_after,
            )
        assert executions(log) == 2
        journals = list((root / "journals").glob("*.jsonl"))
        assert len(journals) == 1  # uncommitted: the crash checkpoint stays
        resumed_cache = ResultCache(root, code_version="c1")
        result = logged_suite(log).run(workers=0, cache=resumed_cache)
        assert result.ok and executions(log) == 4  # only the missing half ran
        assert resumed_cache.stats.resumed == 2
        assert resumed_cache.stats.misses == 2
        assert sorted(c.cached for c in result.cells) == [
            "miss", "miss", "resumed", "resumed",
        ]
        assert result.values() == [0, 7, 14, 21]
        assert not list((root / "journals").glob("*.jsonl"))  # promoted
        third = ResultCache(root, code_version="c1")
        assert logged_suite(log).run(workers=0, cache=third).ok
        assert third.stats.hits == 4  # the resumed run's store is complete

    def test_worker_death_mid_campaign_resumes_from_journal(self, tmp_path):
        log = tmp_path / "log"
        log.mkdir()
        root = tmp_path / "store"
        suite = lambda: logged_suite(log, seeds=(0, 1, 2, 99), runner=die_once_cell)
        with pytest.raises(SuiteExecutionError):
            suite().run(
                workers=2, backend="stream",
                cache=ResultCache(root, code_version="c1"),
            )
        journals = list((root / "journals").glob("*.jsonl"))
        assert len(journals) == 1
        journaled = len(Journal(journals[0]).entries())
        assert journaled >= 1  # the instant cells checkpointed before the death
        resumed_cache = ResultCache(root, code_version="c1")
        result = suite().run(
            workers=2, backend="stream", cache=resumed_cache
        )
        assert result.ok
        assert resumed_cache.stats.resumed == journaled
        assert resumed_cache.stats.misses == 4 - journaled
        assert result.values() == [0, 7, 14, 99 * 7]

    def test_suite_progress_reports_cache_summary(self, tmp_path):
        import io

        log = tmp_path / "log"
        log.mkdir()
        root = tmp_path / "store"
        logged_suite(log).run(workers=0, cache=ResultCache(root, code_version="c1"))
        buffer = io.StringIO()
        logged_suite(log).run(
            workers=0,
            cache=ResultCache(root, code_version="c1"),
            progress=SuiteProgress(stream=buffer),
        )
        text = buffer.getvalue()
        assert text.count("[cache hit]") == 4
        assert "cache: 4 hit, 0 resumed, 0 executed — 100% served from cache" in text


class TestCampaignCaching:
    def test_campaign_warm_run_serves_every_cell(self, tmp_path):
        root = tmp_path / "store"
        cold = Campaign(KEYS, seeds=SEEDS).run(
            workers=0, cache=ResultCache(root, code_version="c1")
        )
        warm_cache = ResultCache(root, code_version="c1")
        warm = Campaign(KEYS, seeds=SEEDS).run(workers=0, cache=warm_cache)
        assert warm_cache.stats.hits == len(KEYS) * len(SEEDS)
        assert warm_cache.stats.misses == 0
        scrub = lambda o: json.dumps(
            {k: sweep_rows(o.experiment(k)) for k in KEYS},
            sort_keys=True, default=repr,
        )
        assert scrub(cold) == scrub(warm)
        # the demuxed per-experiment views carry the cache provenance too
        assert all(
            c.cached == "hit" for k in KEYS for c in warm.experiment(k).cells
        )

    def test_campaign_cache_is_order_and_worker_independent(self, tmp_path):
        root = tmp_path / "store"
        Campaign(KEYS, seeds=SEEDS).run(
            workers=0, order="cost", cache=ResultCache(root, code_version="c1")
        )
        regrid = ResultCache(root, code_version="c1")
        Campaign(KEYS, seeds=SEEDS).run(workers=2, order="grid", cache=regrid)
        assert regrid.stats.hits == len(KEYS) * len(SEEDS)


class TestCacheCli:
    def populate(self, tmp_path, code="c1"):
        log = tmp_path / "log"
        log.mkdir(exist_ok=True)
        root = tmp_path / "store"
        logged_suite(log).run(workers=0, cache=ResultCache(root, code_version=code))
        return root

    def test_stats_and_verify(self, tmp_path, capsys):
        root = self.populate(tmp_path)
        stats = cache_stats(ResultStore(root), "c1")
        assert stats["entries"] == 4 and stats["current"] == 4
        assert stats["by_experiment"] == {"(generic)": 4}
        verdict = cache_verify(ResultStore(root))
        assert verdict == {"checked": 4, "corrupt": [], "ok": True}
        assert cache_main(["--stats", "--root", str(root)]) == 0
        assert cache_main(["--verify", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "4 entries" in out and "0 corrupt" in out

    def test_verify_flags_corruption(self, tmp_path):
        root = self.populate(tmp_path)
        digest, path = next(iter(ResultStore(root).entries()))
        record = ResultStore(root).get(digest)
        record["key"] = record["key"] + "tampered"
        ResultStore(root).put(digest, record)
        assert cache_main(["--verify", "--root", str(root)]) == 1

    def test_gc_drops_stale_code_versions(self, tmp_path):
        root = self.populate(tmp_path, code="old")
        self.populate(tmp_path, code="new")
        assert cache_stats(ResultStore(root), "new")["stale"] == 4
        removed = cache_gc(ResultStore(root), "new")
        assert removed["removed"] == 4
        stats = cache_stats(ResultStore(root), "new")
        assert stats["entries"] == 4 and stats["stale"] == 0
        assert cache_main(["--gc", "--root", str(root)]) == 0

    def test_stats_reports_in_flight_journals(self, tmp_path):
        root = self.populate(tmp_path)
        journal = ResultStore(root).journal("deadbeef")
        journal.append("d1", {"value": 1})
        journal.close()
        stats = cache_stats(ResultStore(root), "c1")
        assert stats["journals"] == [{"journal": "deadbeef", "entries": 1}]

    def test_code_version_flag_prints_digest(self, capsys):
        assert cache_main(["--code-version"]) == 0
        printed = capsys.readouterr().out.strip()
        assert len(printed) == 64 and int(printed, 16) >= 0

    def test_stats_json_artifact(self, tmp_path):
        root = self.populate(tmp_path)
        out = tmp_path / "cache_stats.json"
        assert cache_main(["--stats", "--root", str(root), "--json", str(out)]) == 0
        assert json.loads(out.read_text())["entries"] == 4


class TestReportResume:
    """generate_report must be byte-stable across cache temperature: warm
    reruns execute zero cells, kill-and-resume matches the uninterrupted
    run, both byte-for-byte."""

    def generate(self, tmp_path, monkeypatch, label, extra_args):
        import benchmarks.generate_report as generate_report
        from repro.analysis.experiments import EXPERIMENT_REGISTRY

        monkeypatch.setattr(
            generate_report,
            "ALL_EXPERIMENTS",
            {key: EXPERIMENT_REGISTRY[key].fn for key in KEYS},
        )
        md = tmp_path / f"{label}.md"
        js = tmp_path / f"{label}.json"
        code = generate_report.main(
            [str(md), "--json", str(js), "--seeds", "2", "--workers", "0",
             *extra_args]
        )
        assert code == 0
        return md.read_bytes(), js.read_bytes()

    def test_warm_rerun_is_byte_identical_and_executes_zero_cells(
        self, tmp_path, monkeypatch
    ):
        import dataclasses

        from repro.analysis.experiments import EXPERIMENT_REGISTRY

        root = tmp_path / "store"
        uncached = self.generate(tmp_path, monkeypatch, "uncached", [])
        cold = self.generate(
            tmp_path, monkeypatch, "cold", ["--resume", "--cache-dir", str(root)]
        )
        assert cold == uncached  # the cache never changes a byte
        # Zero-cell proof: every experiment function now raises, so any
        # executed cell would fail the report. The warm run must still
        # emit byte-identical artifacts, served purely from the store.
        def explode(**kwargs):
            raise AssertionError("a warm run must not execute cells")

        for key in KEYS:
            monkeypatch.setitem(
                EXPERIMENT_REGISTRY,
                key,
                dataclasses.replace(EXPERIMENT_REGISTRY[key], fn=explode),
            )
        warm = self.generate(
            tmp_path, monkeypatch, "warm", ["--resume", "--cache-dir", str(root)]
        )
        assert warm == cold

    def test_kill_and_resume_matches_uninterrupted_run(self, tmp_path, monkeypatch):
        import benchmarks.generate_report as generate_report

        reference = self.generate(
            tmp_path, monkeypatch, "reference",
            ["--resume", "--cache-dir", str(tmp_path / "store-a")],
        )

        class Killer:
            calls = 0

            def __call__(self, result, done, total):
                Killer.calls += 1
                if Killer.calls >= 2:
                    raise KeyboardInterrupt

        monkeypatch.setattr(generate_report, "SuiteProgress", Killer)
        with pytest.raises(KeyboardInterrupt):
            self.generate(
                tmp_path, monkeypatch, "killed",
                ["--resume", "--cache-dir", str(tmp_path / "store-b")],
            )
        monkeypatch.undo()
        # the journal holds exactly the cells that completed before the kill
        journals = list((tmp_path / "store-b" / "journals").glob("*.jsonl"))
        assert len(journals) == 1
        resumed = self.generate(
            tmp_path, monkeypatch, "resumed",
            ["--resume", "--cache-dir", str(tmp_path / "store-b")],
        )
        assert resumed == reference
