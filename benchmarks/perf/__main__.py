"""``python -m benchmarks.perf`` or ``python benchmarks/perf/__main__.py``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not __package__:
    # Run as a file: the script's own directory leads sys.path and would
    # let its modules shadow top-level names; the repository root goes there.
    sys.path[0] = str(ROOT)
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf.cli import main  # noqa: E402 - needs the path set up

if __name__ == "__main__":
    sys.exit(main())
