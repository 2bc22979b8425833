"""Shared primitive type aliases for the simulator.

The paper works with a set of processes ``Pi = {p_1, ..., p_n}`` and a discrete
global clock ranging over the natural numbers. We identify processes with
0-based integers and times with non-negative integers.
"""

from __future__ import annotations

from typing import Any

from repro.sim._compiled import ckernel as _ckernel

ProcessId = int
Time = int

#: Sentinel time used for events that never happen (e.g. a message crossing a
#: permanent partition). Chosen far beyond any realistic simulation horizon but
#: still an ``int`` so ordering arithmetic stays exact.
NEVER: Time = 2**62


def validate_process_id(pid: ProcessId, n: int) -> None:
    """Raise ``ValueError`` unless ``pid`` is a valid process id for ``n`` processes."""
    if not isinstance(pid, int) or isinstance(pid, bool):
        raise ValueError(f"process id must be an int, got {pid!r}")
    if not 0 <= pid < n:
        raise ValueError(f"process id {pid} out of range for n={n}")


def validate_time(t: Time) -> None:
    """Raise ``ValueError`` unless ``t`` is a valid (non-negative integer) time."""
    if not isinstance(t, int) or isinstance(t, bool):
        raise ValueError(f"time must be an int, got {t!r}")
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")


def stable_hash(*parts: Any) -> int:
    """A deterministic 63-bit hash of the given parts.

    ``hash()`` is randomized per interpreter run for strings; anything that
    must be a pure function of its inputs across interpreter runs and worker
    processes — detector histories of ``(pattern, seed, pid, t)``, per-cell
    suite seeds, the random scheduler's per-block permutation keys — uses
    this helper instead.
    """
    acc = 1469598103934665603  # FNV-1a offset basis
    for part in parts:
        for byte in repr(part).encode():
            acc ^= byte
            acc = (acc * 1099511628211) % (1 << 63)
    return acc


#: the Python body above under a name of its own: the pure-Python path and
#: the oracle the tests hold the C function to, bit for bit.
_stable_hash_python = stable_hash

if _ckernel is not None:
    # Same function at C speed (``_ckernel.c``: ``ckernel_stable_hash``).
    # Chosen once, here, from whether a matching extension loaded — every
    # caller imports the one name ``stable_hash`` and no flag selects.
    stable_hash = _ckernel.stable_hash
