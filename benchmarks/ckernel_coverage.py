#!/usr/bin/env python3
"""Line and branch coverage of the C kernel, read by gcov.

Build ``repro.sim._ckernel`` with gcc's ``--coverage`` (in ``CFLAGS`` and
``LDFLAGS``), run what is to be measured, then::

    python benchmarks/ckernel_coverage.py --out ckernel_coverage.json

runs ``gcov -b`` over ``src/repro/sim/_ckernel.c`` with the counts the
build's objects collected, prints gcov's figures and writes them as JSON:
``lines_pct`` (executable lines run), ``branches_taken_pct`` (branches
taken at least once) and the two totals. ``benchmarks/check_bench_floors.py
--step sanitizer`` holds them to the floors in ``benchmarks/baselines.json``.
Exits 1 when no counts exist (a build without ``--coverage``, or nothing
ran).
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path("src/repro/sim/_ckernel.c")

#: (share, total) key -> gcov -b's summary line for one source file
FIGURES = {
    ("lines_pct", "lines"): r"Lines executed:([\d.]+)% of (\d+)",
    ("branches_taken_pct", "branches"):
        r"Taken at least once:([\d.]+)% of (\d+)",
}


def parse(summary: str) -> dict:
    """The figures of the ``_ckernel.c`` block of a gcov summary."""
    block = summary.split(f"File '{SOURCE}'", 1)[1].split("File '", 1)[0]
    figures = {}
    for (share, total), pattern in FIGURES.items():
        pct, count = re.search(pattern, block).groups()
        figures[share] = float(pct)
        figures[total] = int(count)
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the figures to this JSON file")
    args = parser.parse_args(argv)
    counts = sorted(ROOT.glob(f"build/temp.*/{SOURCE.with_suffix('.gcda')}"))
    if not counts:
        print(f"no gcov counts for {SOURCE} under build/: build with "
              "--coverage and run something first")
        return 1
    summary = subprocess.run(
        ["gcov", "-b", "-n", "-o", str(counts[-1].parent), str(SOURCE)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    figures = parse(summary)
    print(f"{SOURCE}: {figures['lines_pct']:.2f}% of {figures['lines']} "
          f"lines run, {figures['branches_taken_pct']:.2f}% of "
          f"{figures['branches']} branches taken")
    if args.out:
        Path(args.out).write_text(json.dumps(figures, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
