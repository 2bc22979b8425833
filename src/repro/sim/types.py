"""Shared primitive type aliases for the simulator.

The paper works with a set of processes ``Pi = {p_1, ..., p_n}`` and a discrete
global clock ranging over the natural numbers. We identify processes with
0-based integers and times with non-negative integers.
"""

from __future__ import annotations

from typing import Any

from repro.sim._compiled import ckernel as _ckernel
from repro.sim.errors import ConfigurationError

ProcessId = int
Time = int

#: Sentinel time used for events that never happen (e.g. a message crossing a
#: permanent partition). Chosen far beyond any realistic simulation horizon but
#: still an ``int`` so ordering arithmetic stays exact.
NEVER: Time = 2**62

#: What an empty queue's next-delivery cursor reads (``Network._next_at``):
#: the largest int64, so the cursors are plain ``int64`` arrays the C loop
#: shares. Distinct from :data:`NEVER`, which is a *queued* message that
#: never arrives; every rung refuses a delivery time at or past this.
NO_MESSAGE: Time = 2**63 - 1


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

    ``hash()`` is randomized per interpreter run for strings; cold keys that
    must be a pure function of arbitrary values across interpreter runs and
    worker processes — per-cell suite seeds, run and prefix digests, the
    search envelope's draws, churn victims, draw tag words — use this helper
    instead. It is FNV-1a over concatenated reprs: parts have no separator
    and trailing bytes barely move the high bits, so counter-based draws on
    hot paths use :func:`draw_unit` / :func:`draw_below` instead.
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

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """splitmix64's output function: a bijection on 64-bit words whose
    every output bit depends on every input bit."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


#: ``mix64(TAG)`` for the tag word ``TAG = b"blk-perm"``, which keeps these
#: keys apart from any other draw keyed on the same two integers.
_BLOCK_PERMUTATION_TAG = _mix64(int.from_bytes(b"blk-perm", "big"))


def _block_key(seed: int, block: int) -> int:
    """``mix64(mix64(mix64(TAG) ^ seed) ^ block)``, seed and block taken
    mod 2**64.

    Each input is a fixed-width word mixed in a round of its own, so there
    is no byte string for two pairs to collide in. ``mix64`` is a
    bijection: one seed's blocks all get distinct keys, and two seeds'
    keys meet only where their blocks differ by the xor of two mixed
    words, a pseudo-random 64-bit value.
    """
    return _mix64(
        _mix64(_BLOCK_PERMUTATION_TAG ^ (seed & _MASK64)) ^ (block & _MASK64)
    )


def block_permutation(seed: int, block: int, n: int) -> list[int]:
    """The random scheduler's schedule of block ``block``: a permutation
    of ``range(n)``, a pure function of ``(seed, block, n)``.

    Fisher–Yates driven by the mixer: with ``key = _block_key(seed,
    block)``, for ``i = n-1 .. 1`` swap slot ``i`` with slot
    ``j = (mix64(key ^ i) * (i + 1)) >> 64``. The multiply-shift gives
    each ``j`` in ``0 .. i`` either ``floor`` or ``ceil`` of
    ``2**64 / (i + 1)`` of the 2**64 words, so its probability is off
    ``1 / (i + 1)`` by less than ``2**-64``: a relative bias of at most
    ``(i + 1) / 2**64`` per draw, with no rejection loop.
    """
    key = _block_key(seed, block)
    permutation = list(range(n))
    for i in range(n - 1, 0, -1):
        j = (_mix64(key ^ i) * (i + 1)) >> 64
        permutation[i], permutation[j] = permutation[j], permutation[i]
    return permutation


#: the Python body above, kept as the definition and the tests' oracle.
_block_permutation_python = block_permutation


# -- counter-based draws -------------------------------------------------------


def tag_word(name: str) -> int:
    """The tag word of the draws named ``name``: ``stable_hash(name)``.

    Callers compute it once, at import, so a hot draw never touches a
    string.
    """
    return stable_hash(name)


def _draw_key(tag: int, seed: int, words: tuple[int, ...]) -> int:
    """``key = mix64(tag)``, then ``key = mix64(key ^ w)`` for each word
    ``w`` in ``(seed, *words)``.

    ``_mix64`` reads its argument mod 2**64, so the tag, the seed and the
    words are taken mod 2**64 and must be ``int`` (a float or a str raises
    ``TypeError``). Each word gets a round of its own, so there is no byte
    string for two coordinate tuples to collide in, and every bit of the
    key depends on every input bit.
    """
    key = _mix64(_mix64(tag) ^ seed)
    for word in words:
        key = _mix64(key ^ word)
    return key


def draw_unit(tag: int, seed: int, /, *words: int) -> float:
    """A float in ``(0, 1]``, pure in ``(tag, seed, *words)``: the top 53
    bits of the key, plus one, over 2**53 — every value a multiple of
    2**-53, each equally likely."""
    return ((_draw_key(tag, seed, words) >> 11) + 1) / 9007199254740992.0


def draw_below(bound: int, tag: int, seed: int, /, *words: int) -> int:
    """An int in ``range(bound)``, pure in ``(tag, seed, *words)``, for
    ``1 <= bound < 2**64``.

    Multiply-shift, ``(key * bound) >> 64``: each result is hit by
    ``floor`` or ``ceil`` of ``2**64 / bound`` of the 2**64 keys, so its
    probability is off ``1 / bound`` by a relative error of at most
    ``bound / 2**64``, with no modulo and no rejection loop.
    """
    if not isinstance(bound, int):
        raise TypeError(f"draw_below needs an int bound, got {bound!r}")
    if not 0 < bound <= _MASK64:
        raise ValueError(f"draw_below needs 1 <= bound < 2**64, got {bound!r}")
    return (_draw_key(tag, seed, words) * bound) >> 64


#: the Python bodies above, kept as the definitions and the tests' oracles.
_draw_unit_python = draw_unit
_draw_below_python = draw_below


def check_seed(seed: Any, owner: str) -> None:
    """Raise ``ConfigurationError`` unless ``seed`` is an ``int`` (not a
    ``bool``): the draws take it as a word mod 2**64 and would raise only
    mid-run."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigurationError(f"{owner} needs an int seed, got {seed!r}")


if _ckernel is not None:
    # Same functions at C speed (``_ckernel.c``: ``ckernel_stable_hash``,
    # ``ckernel_block_permutation``, ``ckernel_draw_unit``,
    # ``ckernel_draw_below``). Chosen once, here, from whether a matching
    # extension loaded — every caller imports the one name and no flag
    # selects.
    stable_hash = _ckernel.stable_hash
    block_permutation = _ckernel.block_permutation
    draw_unit = _ckernel.draw_unit
    draw_below = _ckernel.draw_below
