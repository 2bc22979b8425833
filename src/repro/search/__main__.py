"""CLI for the falsifier: ``python -m repro.search``.

Examples::

    # list the registered targets
    python -m repro.search --list

    # search EXP-4's envelope with a 200-trial budget, compare against the
    # canonical i.i.d. 3-seed baseline, and write the witness JSON
    python -m repro.search --experiment exp4 --budget 200 --out witnesses/

    # promote a found witness into the pinned corpus (it becomes a
    # permanent regression test replayed by tests/test_witnesses.py)
    python -m repro.search --target exp4-tau --budget 200 --promote

    # replay the pinned corpus on a given kernel (no search)
    python -m repro.search --replay --kernel legacy
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from repro.search.falsify import falsify
from repro.search.targets import get_target, iid_baseline, registered_targets
from repro.search.witness import (
    default_corpus_dir,
    load_corpus,
    replay_witness,
    save_witness,
)
from repro.sim.kernel import DEFAULT_KERNEL


def _progress(evaluations: int, budget: int, best: float) -> None:
    print(f"  [{evaluations:>5}/{budget}] best objective = {best}", flush=True)


def _replay_corpus(directory: Path | None, kernel: str) -> int:
    corpus = load_corpus(directory)
    if not corpus:
        print(f"no witnesses found in {directory or default_corpus_dir()}")
        return 1
    failed = 0
    for witness in corpus:
        value, digest = replay_witness(witness, kernel=kernel)
        ok = value == witness.value and digest == witness.digest
        status = "ok" if ok else "MISMATCH"
        print(
            f"{witness.target:>12} ({witness.experiment}, {witness.objective}) "
            f"value={value} digest={digest} [{status}]"
        )
        failed += not ok
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.search",
        description="guided falsification over adversary envelopes",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--target", help="registered target name (see --list)")
    group.add_argument(
        "--experiment",
        help="experiment label resolving to its unique target (e.g. exp4)",
    )
    parser.add_argument("--list", action="store_true", help="list targets and exit")
    parser.add_argument(
        "--replay", action="store_true",
        help="replay the witness corpus instead of searching",
    )
    parser.add_argument("--budget", type=int, default=200, help="trial budget")
    parser.add_argument("--seed", type=int, default=0, help="search seed")
    parser.add_argument("--batch", type=int, default=8, help="trials per round")
    parser.add_argument(
        "--workers", type=int, default=0,
        help="suite worker processes for trial batches (0 = in-process)",
    )
    parser.add_argument(
        "--kernel", default=DEFAULT_KERNEL, help="sim kernel for trials/replays"
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="directory to write the witness JSON into",
    )
    parser.add_argument(
        "--promote", action="store_true",
        help="write the witness into the pinned corpus (tests/witnesses/)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="skip the canonical i.i.d. baseline measurement",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in registered_targets():
            target = get_target(name)
            print(f"{name:>12}  [{target.experiment}] {target.description}")
        return 0

    if args.replay:
        return _replay_corpus(args.out, args.kernel)

    name = args.target or args.experiment
    if not name:
        parser.error("pass --target/--experiment, --replay, or --list")
    target = get_target(name)
    print(
        f"falsifying {target.name} ({target.experiment}, "
        f"objective={target.objective}) with budget {args.budget}"
    )
    result = falsify(
        target.name,
        budget=args.budget,
        seed=args.seed,
        batch=args.batch,
        workers=args.workers,
        kernel=args.kernel,
        progress=_progress,
    )
    witness = result.witness

    if not args.no_baseline and target.baseline_run is not None:
        baseline = iid_baseline(target.name)
        witness = dataclasses.replace(witness, baseline=baseline)
        verdict = "EXCEEDS" if witness.exceeds_baseline else "does not exceed"
        print(
            f"best objective {witness.value} {verdict} the i.i.d. "
            f"{baseline['seeds']}-seed max {baseline['max']} "
            f"(values {baseline['values']})"
        )
    else:
        print(f"best objective {witness.value}")
    print(f"witness point: {witness.point}")

    out_dir = default_corpus_dir() if args.promote else args.out
    if out_dir is not None:
        path = save_witness(witness, out_dir)
        print(f"witness written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
