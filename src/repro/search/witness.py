"""Replayable witnesses: worst cases as permanent, serializable artifacts.

A :class:`Witness` is the falsifier's unit of output — one adversary point,
the objective value it achieved, and the run digest of the exact simulation
it denotes. Because every run is pure in its counter-based keys, the witness
is a complete replay recipe: :func:`replay_witness` reconstructs the run on
*any* kernel (and optionally through a worker-pool suite cell) and returns
the freshly measured ``(value, digest)`` pair, which must equal the pinned
one byte for byte. The checked-in corpus under ``tests/witnesses/`` turns
every frontier point the search ever found into a regression test
(``tests/test_witnesses.py``; the tier-1 gate
``benchmarks/check_witness_corpus.py`` replays it in CI).

JSON layout (``schema`` 1)::

    {
      "schema": 1,
      "target": "exp4-tau",          # registry name (repro.search.targets)
      "experiment": "EXP-4",
      "objective": "etob_tau",
      "value": 331,                  # objective at the witness point
      "digest": 123456789,           # run_digest of the reconstructed run
      "axes": {...},                 # the target's fixed scenario identity
      "point": {..., "crashes": [[pid, t], ...]},
      "baseline": {"seeds": 3, "values": [...], "max": ...} | null,
      "provenance": {"budget": ..., "seed": ..., ...}
    }
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.search.envelope import normalize_point
from repro.sim.errors import ConfigurationError
from repro.sim.kernel import DEFAULT_KERNEL

__all__ = [
    "WITNESS_SCHEMA",
    "Witness",
    "default_corpus_dir",
    "load_corpus",
    "replay_witness",
    "save_witness",
]

WITNESS_SCHEMA = 1

#: the checked-in corpus, relative to the repository root.
_CORPUS_RELATIVE = Path("tests") / "witnesses"


@dataclass(frozen=True)
class Witness:
    """One pinned worst case (see the module docstring for the layout)."""

    target: str
    experiment: str
    objective: str
    value: float
    digest: int
    point: dict
    axes: dict = field(default_factory=dict)
    baseline: dict | None = None
    provenance: dict = field(default_factory=dict)
    schema: int = WITNESS_SCHEMA

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", normalize_point(self.point))

    @property
    def exceeds_baseline(self) -> bool | None:
        """Whether the witness strictly beats its recorded i.i.d. maximum
        (None when no baseline was recorded)."""
        if not self.baseline:
            return None
        return self.value > self.baseline["max"]

    def to_json(self) -> str:
        payload = asdict(self)
        payload["point"] = {
            **{k: v for k, v in self.point.items() if k != "crashes"},
            "crashes": [list(entry) for entry in self.point["crashes"]],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Witness":
        payload = json.loads(text)
        schema = payload.pop("schema", None)
        if schema != WITNESS_SCHEMA:
            raise ConfigurationError(
                f"unsupported witness schema {schema!r} "
                f"(this build reads schema {WITNESS_SCHEMA})"
            )
        return cls(schema=schema, **payload)


def default_corpus_dir(start: Path | None = None) -> Path:
    """The checked-in corpus directory, found from ``start`` (defaults to
    this file's repository checkout)."""
    here = start or Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / _CORPUS_RELATIVE
        if candidate.is_dir():
            return candidate
    return Path.cwd() / _CORPUS_RELATIVE


def save_witness(witness: Witness, directory: Path | str) -> Path:
    """Write ``witness`` to ``directory/<target>.json`` (promotion into a
    corpus is just saving into ``tests/witnesses/``)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{witness.target}.json"
    path.write_text(witness.to_json())
    return path


def load_corpus(directory: Path | str | None = None) -> list[Witness]:
    """Every witness in ``directory`` (default: the checked-in corpus),
    sorted by filename so iteration order is stable."""
    directory = Path(directory) if directory is not None else default_corpus_dir()
    witnesses = []
    for path in sorted(directory.glob("*.json")):
        witnesses.append(Witness.from_json(path.read_text()))
    return witnesses


def _replay_cell(target: str, point: dict, kernel: str) -> tuple[float, int]:
    """Module-level (picklable) suite runner for worker-pool replays."""
    from repro.search.targets import evaluate

    return evaluate(target, point, kernel=kernel)


def replay_witness(
    witness: Witness,
    *,
    kernel: str = DEFAULT_KERNEL,
    workers: int = 0,
    backend: str = "stream",
) -> tuple[float, int]:
    """Reconstruct the witness's exact run; returns fresh ``(value, digest)``.

    ``kernel`` selects the sim kernel to reconstruct on; with ``workers > 0``
    the trial is dispatched as a single cell on a
    :class:`~repro.suite.ScenarioSuite` worker pool (``backend`` as in
    :meth:`~repro.suite.ScenarioSuite.run`), exercising the same pickle and
    reassembly path search trials take. The caller compares the result
    against ``(witness.value, witness.digest)`` — equality is the corpus
    invariant.
    """
    if workers and workers > 0:
        from repro.suite import Cell, ScenarioSuite

        suite = ScenarioSuite.from_cells(
            [
                Cell(
                    runner=_replay_cell,
                    params={
                        "target": witness.target,
                        "point": witness.point,
                        "kernel": kernel,
                    },
                    tags={"witness": witness.target},
                )
            ],
            name="witness-replay",
        )
        result = suite.run(workers=workers, backend=backend)
        cell = result.cells[0]
        if not cell.ok:
            raise ConfigurationError(
                f"witness replay cell failed: {cell.error}"
            )
        value, digest = cell.value
        return value, digest
    return _replay_cell(witness.target, witness.point, kernel)
