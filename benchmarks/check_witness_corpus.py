#!/usr/bin/env python3
"""CI gate: the pinned witness corpus must replay byte-identically.

Every JSON file under ``tests/witnesses/`` is a worst case the falsifier
(``repro.search``) once found, pinned with the objective value and run
digest of the exact simulation it denotes. This gate reconstructs each
witness on every requested kernel and fails when any replay disagrees with
the pinned pair — the earliest possible signal that replay purity broke in
the scheduler, the environment models, the detector histories, or the suite
dispatch path::

    python benchmarks/check_witness_corpus.py [--kernels compiled-loop,packed,legacy]
                                              [--corpus tests/witnesses]
                                              [--workers N]

On the ``compiled-loop`` rung the gate also requires that each witness's
simulation actually ran on the C tick loop (``metrics.fused_path ==
"c-loop"``): the witnesses are random-scheduled falsifier trials, and a
rung that silently degraded to the generic engine would replay the same
digest under another name.

Exit codes: 0 every witness replays exactly (and still strictly exceeds its
recorded i.i.d. baseline); 1 any mismatch, or an empty corpus (a corpus
that silently vanished must not pass the gate).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.search import get_target, load_corpus, replay_witness  # noqa: E402
from repro.sim import DEFAULT_KERNEL, replay_simulation  # noqa: E402

try:  # package import (pytest / -m); falls back to script-directory import
    from benchmarks.step_summary import markdown_table, publish_step_summary
except ImportError:  # pragma: no cover - exercised by `python benchmarks/...`
    from step_summary import markdown_table, publish_step_summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--kernels",
        default=",".join(dict.fromkeys([DEFAULT_KERNEL, "packed", "legacy"])),
        help="comma-separated sim kernels to replay on (default: the default "
        "kernel of this interpreter, then packed,legacy)",
    )
    parser.add_argument(
        "--corpus",
        default=None,
        help="corpus directory (default: the checked-in tests/witnesses)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="replay through a suite worker pool of this size (default: 0, in-process)",
    )
    args = parser.parse_args(argv)

    corpus = load_corpus(args.corpus)
    if not corpus:
        print("FAIL: witness corpus is empty — nothing to gate on")
        return 1

    kernels = [k.strip() for k in args.kernels.split(",") if k.strip()]
    failures = 0
    summary_rows: list[tuple] = []
    for witness in corpus:
        for kernel in kernels:
            value, digest = replay_witness(
                witness, kernel=kernel, workers=args.workers
            )
            ok = value == witness.value and digest == witness.digest
            status = "ok" if ok else "MISMATCH"
            if kernel == "compiled-loop" and get_target(witness.target).build:
                sim = replay_simulation(
                    witness.experiment, witness.axes, keys=witness.point,
                    kernel=kernel,
                )
                if sim.metrics.fused_path != "c-loop":
                    ok = False
                    status = (
                        f"NOT ON THE C LOOP: fused_path="
                        f"{sim.metrics.fused_path!r} ({sim.metrics.fused_reason})"
                    )
            print(
                f"{witness.target:>12} [{kernel:>6}] value={value} "
                f"(pinned {witness.value}) digest={digest} [{status}]"
            )
            summary_rows.append(
                (witness.target, kernel, value, witness.value, digest,
                 "ok" if ok else f"**{status}**")
            )
            failures += not ok
        if witness.baseline is not None and witness.exceeds_baseline is not True:
            print(
                f"{witness.target:>12} no longer exceeds its i.i.d. baseline "
                f"max {witness.baseline['max']} [FAIL]"
            )
            summary_rows.append(
                (witness.target, "(i.i.d. baseline)", witness.value,
                 f"> {witness.baseline['max']}", "-", "**FAIL**")
            )
            failures += 1

    # Mirror the replay table onto the GitHub job summary (plain stdout,
    # above, is the fallback whenever $GITHUB_STEP_SUMMARY is unset).
    verdict = (
        f"**FAIL** — {failures} replay check(s) failed"
        if failures
        else f"**OK** — {len(corpus)} witness(es) × {len(kernels)} kernel(s)"
    )
    publish_step_summary(
        f"### Witness corpus replay gate\n\n{verdict}\n\n"
        + markdown_table(
            ("witness", "kernel", "value", "pinned", "digest", "status"),
            summary_rows,
        )
    )

    if failures:
        print(f"\nFAIL: {failures} witness replay check(s) failed")
        return 1
    print(
        f"\nOK: {len(corpus)} witness(es) replayed identically on "
        f"{len(kernels)} kernel(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
