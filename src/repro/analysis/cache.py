"""Content-addressed campaign result cache with checkpoint/resume.

Every campaign cell is pure in ``(experiment, seed, axes)`` — all randomness
is counter-based — so a cell's result is a function of nothing but its
parameters and the code that computes it. This module memoizes exactly that
function:

- :func:`compute_code_version` digests the *bytes* of every ``.py`` and
  ``.c`` file in the ``repro`` package, so a stale hit after any source edit
  is impossible (the digest changes, old entries become unreachable,
  ``--gc`` sweeps them);
- :class:`ResultStore` is the content-addressed on-disk store: one pickle
  per completed cell under ``objects/<d2>/<digest>.pkl``, written atomically
  (temp file + ``os.replace``) so a crash can never leave a half-entry that
  later reads as a hit;
- :class:`Journal` is the crash-safe in-flight log: as a campaign streams,
  every completed cell is appended (and fsynced) as one self-contained JSONL
  record, so killing the process mid-run loses at most the cell being
  written; a rerun of the *same* campaign replays the journal ("resumed"
  cells) and executes only what is missing. When the campaign completes,
  the journal is promoted into the store and deleted;
- :class:`ResultCache` bundles both and is what
  :func:`repro.suite.run_cells` (and so ``ScenarioSuite.run`` and
  :meth:`Campaign.run <repro.analysis.experiments.campaign.Campaign.run>`)
  accepts as ``cache=``: before dispatching, each cell is keyed by
  ``sha256(code_version, runner identity, params)`` — kernel-independent,
  like the results themselves — and served from the store (``hit``), the
  journal (``resumed``), or executed (``miss``).

CLI (``python -m repro.analysis.cache``)::

    --stats [--json FILE]   entry/journal counts, bytes, stale-vs-current
    --gc                    drop entries and journals from other code versions
    --verify                re-derive every entry's digest from its stored key
    --code-version          print the current code digest (CI cache keys)

Nothing here changes a single number: a cache hit returns the pickled
:class:`~repro.suite.CellResult` payload of the identical earlier run, so a
fully-warm ``generate_report.py`` rerun emits byte-identical artifacts while
executing zero cells.
"""

from __future__ import annotations

import argparse
import base64
import functools
import hashlib
import json
import os
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.suite import Cell, CellResult

__all__ = [
    "CacheSession",
    "CacheStats",
    "Journal",
    "ResultCache",
    "ResultStore",
    "cell_key",
    "compute_code_version",
    "default_cache_root",
    "runner_identity",
]

#: bytes hashed per read chunk when digesting source files.
_CHUNK = 1 << 16


def default_cache_root() -> Path:
    """The default on-disk store location (cwd-relative, like the reports)."""
    return Path(os.environ.get("REPRO_RESULT_CACHE", ".repro_cache"))


# ---------------------------------------------------------------------------
# code version
# ---------------------------------------------------------------------------


def compute_code_version(root: Path | str | None = None) -> str:
    """Digest the bytes of every ``.py`` and ``.c`` file under ``root``
    (default: the installed ``repro`` package).

    The digest covers relative paths *and* contents in sorted order, so
    renaming, adding, deleting, or editing any source file changes it. C
    sources count because the extension computes values results depend on
    (``draw_unit`` / ``draw_below`` draw every delay, client schedule and
    detector history, ``block_permutation`` every random schedule), not
    only storage that is differential-tested against Python. It is the
    *source* that is hashed, never the built ``.so``: a build the source
    does not match is refused at import (:mod:`repro.sim._compiled`), and
    a rebuild of unchanged source must not dump the cache.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    root = Path(root)
    sources = (path for path in root.rglob("*") if path.suffix in (".py", ".c"))
    digest = hashlib.sha256()
    for path in sorted(sources, key=lambda p: p.relative_to(root).as_posix()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        with path.open("rb") as handle:
            while chunk := handle.read(_CHUNK):
                digest.update(chunk)
        digest.update(b"\0")
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _cached_code_version() -> str:
    return compute_code_version()


# ---------------------------------------------------------------------------
# cell keys
# ---------------------------------------------------------------------------


def runner_identity(runner: Callable[..., Any]) -> str:
    """A stable textual identity for a cell runner.

    ``functools.partial`` unwraps to the underlying function plus its bound
    arguments (the campaign path: ``partial(run_experiment, "EXP-4")``), so
    two experiments sharing one dispatch function still key apart.
    """
    parts: list[str] = []
    while isinstance(runner, functools.partial):
        parts.append(f"args={runner.args!r}")
        if runner.keywords:
            bound = sorted(runner.keywords.items())
            parts.append(f"kwargs={bound!r}")
        runner = runner.func
    name = f"{getattr(runner, '__module__', '?')}.{getattr(runner, '__qualname__', repr(runner))}"
    return ":".join([name, *reversed(parts)])


def cell_key(
    code_version: str, runner: Callable[..., Any], params: dict[str, Any]
) -> tuple[str, str]:
    """The content address of one cell: ``(digest, canonical key text)``.

    The key covers the code digest, the runner identity, and the resolved
    cell parameters (seed and axis values included) — and nothing
    positional: provenance tags, pool indices, worker counts and kernels
    are all absent, which is what makes the store shareable across
    campaigns and execution strategies. The canonical text is stored beside
    each entry so ``--verify`` can re-derive the digest from the entry
    itself.
    """
    payload = json.dumps(
        {
            "code": code_version,
            "runner": runner_identity(runner),
            "params": params,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest(), payload


# ---------------------------------------------------------------------------
# store and journal
# ---------------------------------------------------------------------------


class ResultStore:
    """Content-addressed pickle-per-entry store with atomic writes."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def journals_dir(self) -> Path:
        return self.root / "journals"

    def _path(self, digest: str) -> Path:
        return self.objects_dir / digest[:2] / f"{digest}.pkl"

    def get(self, digest: str) -> dict | None:
        """The stored record for ``digest``, or None (corrupt reads miss)."""
        path = self._path(digest)
        try:
            with path.open("rb") as handle:
                record = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None
        return record if isinstance(record, dict) else None

    def put(self, digest: str, record: dict) -> None:
        """Atomically write ``record``: a crash leaves either the old entry
        or the new one, never a torn file."""
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with tmp.open("wb") as handle:
            pickle.dump(record, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)

    def entries(self) -> Iterable[tuple[str, Path]]:
        """Every ``(digest, path)`` in the store, sorted for stable output."""
        if not self.objects_dir.is_dir():
            return
        for path in sorted(self.objects_dir.glob("*/*.pkl")):
            yield path.stem, path

    def journal(self, name: str) -> "Journal":
        return Journal(self.journals_dir / f"{name}.jsonl")

    def journals(self) -> list["Journal"]:
        if not self.journals_dir.is_dir():
            return []
        return [Journal(p) for p in sorted(self.journals_dir.glob("*.jsonl"))]


class Journal:
    """Append-only, fsynced, truncation-tolerant log of completed cells.

    One line per cell: ``{"digest": ..., "blob": base64(pickle(record))}``.
    Appends flush and fsync before returning, so once
    :func:`~repro.suite.run_cells` has reported a cell the entry survives
    any later crash; a torn final line (the crash window) is skipped on
    replay rather than poisoning the file.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._handle = None

    def append(self, digest: str, record: dict) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="ascii")
        blob = base64.b64encode(
            pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        self._handle.write(json.dumps({"digest": digest, "blob": blob}) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def entries(self) -> dict[str, dict]:
        """Replay the journal: ``digest -> record``, stopping at the first
        unreadable line (only the torn tail of a crashed append can be
        unreadable — everything before it was fsynced whole)."""
        if not self.path.is_file():
            return {}
        records: dict[str, dict] = {}
        with self.path.open("r", encoding="ascii") as handle:
            for line in handle:
                try:
                    entry = json.loads(line)
                    record = pickle.loads(base64.b64decode(entry["blob"]))
                except Exception:  # noqa: BLE001 - torn tail ends the replay
                    break
                records[entry["digest"]] = record
        return records

    def clear(self) -> None:
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------------------
# the cache object suites accept
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss/resume accounting for one or more cached suite runs."""

    hits: int = 0
    resumed: int = 0
    misses: int = 0
    stored: int = 0

    @property
    def served(self) -> int:
        return self.hits + self.resumed

    @property
    def total(self) -> int:
        return self.served + self.misses

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "resumed": self.resumed,
            "misses": self.misses,
            "stored": self.stored,
        }

    def describe(self) -> str:
        rate = 100.0 * self.served / self.total if self.total else 0.0
        return (
            f"{self.hits} hit, {self.resumed} resumed, "
            f"{self.misses} executed — {rate:.0f}% served from cache"
        )


class ResultCache:
    """The object :func:`~repro.suite.run_cells` accepts as ``cache=``: a
    store plus the current code digest.

    ``code_version`` is injectable for tests (proving that a digest bump
    invalidates every entry without editing source files); by default it is
    computed once per process from the ``repro`` package bytes.
    """

    def __init__(
        self,
        root: Path | str | None = None,
        *,
        code_version: str | None = None,
    ) -> None:
        self.store = ResultStore(root if root is not None else default_cache_root())
        self.code_version = (
            code_version if code_version is not None else _cached_code_version()
        )
        #: accounting accumulated across every session of this cache object.
        self.stats = CacheStats()

    @property
    def root(self) -> Path:
        return self.store.root

    def session(self, name: str, cells: Sequence[Cell]) -> "CacheSession":
        """Open one run's session: partition ``cells`` into served/pending."""
        return CacheSession(self, name, cells)


class CacheSession:
    """One :func:`~repro.suite.run_cells` call against the cache: lookup,
    streaming journal, commit.

    Built by :meth:`ResultCache.session`. ``served`` holds ready
    :class:`~repro.suite.CellResult` objects (store hits and journal-resumed
    cells, in grid order, each carrying its original ``wall_time``);
    ``pending`` the cells that must actually execute. The executor calls
    :meth:`record` as each fresh result streams in (append + fsync — the
    checkpoint) and :meth:`commit` only when every cell is accounted for
    (promote the journal into the store, then delete it). A run that dies
    mid-way simply never commits: the journal stays, and the next session of
    the identical campaign resumes from it.
    """

    def __init__(
        self, cache: ResultCache, name: str, cells: Sequence[Cell]
    ) -> None:
        self.cache = cache
        self.stats = CacheStats()
        self._keys: dict[int, tuple[str, str]] = {}
        digests: list[str] = []
        for cell in cells:
            digest, payload = cell_key(cache.code_version, cell.runner, cell.params)
            self._keys[cell.index] = (digest, payload)
            digests.append(digest)
        # The journal is per-campaign: the same cell set (same code, same
        # experiments × seeds × axes) maps to the same journal file, so an
        # interrupted run and its rerun meet; a different campaign cannot
        # accidentally resume from it.
        campaign_id = hashlib.sha256(
            json.dumps([cache.code_version, name, sorted(digests)]).encode()
        ).hexdigest()[:16]
        self.journal = cache.store.journal(campaign_id)
        journaled = self.journal.entries()
        self.served: list[CellResult] = []
        self.pending: list[Cell] = []
        for cell in cells:
            digest = self._keys[cell.index][0]
            record = self.cache.store.get(digest)
            status = "hit"
            if record is None and digest in journaled:
                record, status = journaled[digest], "resumed"
            if record is None:
                self.pending.append(cell)
                self.stats.misses += 1
                continue
            self.served.append(
                CellResult(
                    index=cell.index,
                    params=dict(cell.params),
                    value=record["value"],
                    error=None,
                    wall_time=record["wall_time"],
                    tags=dict(cell.tags),
                    cached=status,
                )
            )
            if status == "hit":
                self.stats.hits += 1
            else:
                self.stats.resumed += 1

    def record(self, result: CellResult) -> None:
        """Checkpoint one freshly executed cell (failed cells are never
        cached — they re-execute on every run until they pass)."""
        result.cached = "miss"
        if not result.ok:
            return
        digest, payload = self._keys[result.index]
        self.journal.append(
            digest,
            {
                "digest": digest,
                "key": payload,
                "code": self.cache.code_version,
                "experiment": result.tags.get("experiment"),
                "params": dict(result.params),
                "value": result.value,
                "wall_time": result.wall_time,
            },
        )
        self.stats.stored += 1

    def commit(self) -> None:
        """Promote the journal (old resumed entries and fresh appends alike)
        into the content-addressed store, then drop it. Called only after
        every cell of the campaign is accounted for."""
        for digest, record in self.journal.entries().items():
            self.cache.store.put(digest, record)
        self.journal.clear()
        self.cache.stats.hits += self.stats.hits
        self.cache.stats.resumed += self.stats.resumed
        self.cache.stats.misses += self.stats.misses
        self.cache.stats.stored += self.stats.stored


# ---------------------------------------------------------------------------
# maintenance: stats / gc / verify (also the CLI)
# ---------------------------------------------------------------------------


def cache_stats(store: ResultStore, code_version: str) -> dict:
    """Entry counts, bytes, stale-vs-current split, per-experiment totals."""
    entries = 0
    total_bytes = 0
    current = 0
    by_experiment: dict[str, int] = {}
    for digest, path in store.entries():
        entries += 1
        total_bytes += path.stat().st_size
        record = store.get(digest)
        if record is None:
            continue
        if record.get("code") == code_version:
            current += 1
        experiment = record.get("experiment") or "(generic)"
        by_experiment[experiment] = by_experiment.get(experiment, 0) + 1
    journals = []
    for journal in store.journals():
        journals.append(
            {"journal": journal.path.stem, "entries": len(journal.entries())}
        )
    return {
        "root": str(store.root),
        "code_version": code_version,
        "entries": entries,
        "bytes": total_bytes,
        "current": current,
        "stale": entries - current,
        "by_experiment": dict(sorted(by_experiment.items())),
        "journals": journals,
    }


def cache_gc(store: ResultStore, code_version: str) -> dict:
    """Drop entries (and journals) whose code digest is not ``code_version``.

    Stale entries are unreachable by construction — the digest of every
    lookup includes the current code version — so gc is pure space
    reclamation. Unreadable entries are dropped too: they can never hit.
    """
    removed = 0
    freed = 0
    for digest, path in list(store.entries()):
        record = store.get(digest)
        if record is not None and record.get("code") == code_version:
            continue
        freed += path.stat().st_size
        path.unlink()
        removed += 1
    removed_journals = 0
    for journal in store.journals():
        entries = journal.entries()
        if entries and all(
            record.get("code") == code_version for record in entries.values()
        ):
            continue
        journal.clear()
        removed_journals += 1
    return {"removed": removed, "freed_bytes": freed,
            "removed_journals": removed_journals}


def cache_verify(store: ResultStore) -> dict:
    """Re-derive every entry's digest from its stored canonical key.

    An entry is corrupt when it fails to unpickle, its filename disagrees
    with ``sha256(key)``, or its recorded digest disagrees with either.
    """
    checked = 0
    corrupt: list[str] = []
    for digest, path in store.entries():
        checked += 1
        record = store.get(digest)
        if record is None:
            corrupt.append(f"{digest}: unreadable")
            continue
        derived = hashlib.sha256(record.get("key", "").encode()).hexdigest()
        if derived != digest or record.get("digest") != digest:
            corrupt.append(f"{digest}: key re-derives to {derived}")
    return {"checked": checked, "corrupt": corrupt, "ok": not corrupt}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.cache",
        description="inspect and maintain the campaign result cache",
    )
    parser.add_argument(
        "--root", default=None,
        help="store directory (default: .repro_cache, or $REPRO_RESULT_CACHE)",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--stats", action="store_true",
                       help="print entry/journal counts and sizes")
    group.add_argument("--gc", action="store_true",
                       help="drop entries from other code versions")
    group.add_argument("--verify", action="store_true",
                       help="re-derive every entry digest; exit 1 on corruption")
    group.add_argument("--code-version", action="store_true",
                       help="print the current code digest and exit")
    parser.add_argument(
        "--json", default=None, dest="json_path",
        help="also write the machine-readable result to this file",
    )
    args = parser.parse_args(argv)

    code = _cached_code_version()
    if args.code_version:
        print(code)
        return 0

    store = ResultStore(args.root if args.root is not None else default_cache_root())
    if args.stats:
        payload = cache_stats(store, code)
        print(f"result cache at {payload['root']} (code {code[:16]}…)")
        print(
            f"  {payload['entries']} entries, {payload['bytes']} bytes "
            f"({payload['current']} current, {payload['stale']} stale)"
        )
        for experiment, count in payload["by_experiment"].items():
            print(f"    {experiment}: {count}")
        for journal in payload["journals"]:
            print(
                f"  in-flight journal {journal['journal']}: "
                f"{journal['entries']} cell(s) awaiting resume"
            )
        exit_code = 0
    elif args.gc:
        payload = cache_gc(store, code)
        print(
            f"gc: removed {payload['removed']} stale entr(ies) "
            f"({payload['freed_bytes']} bytes) and "
            f"{payload['removed_journals']} stale journal(s)"
        )
        exit_code = 0
    else:
        payload = cache_verify(store)
        for line in payload["corrupt"]:
            print(f"CORRUPT {line}")
        print(
            f"verify: {payload['checked']} entr(ies) checked, "
            f"{len(payload['corrupt'])} corrupt"
        )
        exit_code = 0 if payload["ok"] else 1

    if args.json_path:
        Path(args.json_path).write_text(json.dumps(payload, indent=2) + "\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
