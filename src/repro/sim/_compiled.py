"""The one guarded import of the optional C extension ``repro.sim._ckernel``.

The extension carries storage and loops that are differential-tested
against their Python twins (:mod:`repro.sim.kernel`), the C loop's
dispatch into :class:`~repro.sim.stack.ProtocolStack` layers and their Ω
read (``layer_omega``, the twin of ``LayerContext.omega``), *and* the
functions of :mod:`repro.sim.types` — ``stable_hash``,
``block_permutation``, ``draw_unit``, ``draw_below`` — whose values define
every schedule, delay, detector history and digest. A build left over from an older checkout must
therefore never be used silently: ``setup.py`` compiles the sha256 of
``_ckernel.c`` into the module as ``SOURCE_DIGEST``, and this module
accepts the extension only when that digest matches the ``_ckernel.c``
lying beside it. On a mismatch — or a build that predates the digest —
everything degrades to the pure-Python paths with one
:class:`RuntimeWarning` naming the rebuild command.

:data:`ckernel` is the verified module or ``None``. It is decided once, at
import, from what is on disk; nothing configures it. This module imports
nothing from ``repro`` so that :mod:`repro.sim.types` can use it.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from typing import Any


def _verified(module: Any, source: str | os.PathLike[str]) -> Any:
    """``module`` when it was built from ``source``, else ``None`` (warned).

    A build without ``SOURCE_DIGEST`` predates the check and lacks the
    symbols newer callers bind, so it never passes. A build with a digest
    and no source beside it (an installed wheel that ships only the
    binary) has nothing to be stale against and is trusted.
    """
    built = getattr(module, "SOURCE_DIGEST", None)
    if built is not None:
        try:
            with open(source, "rb") as handle:
                current = hashlib.sha256(handle.read()).hexdigest()
        except FileNotFoundError:
            return module
        if built == current:
            return module
    warnings.warn(
        f"{module.__name__} was not built from the "
        f"{os.path.basename(source)} beside it "
        f"({'no SOURCE_DIGEST' if built is None else 'SOURCE_DIGEST differs'}); "
        "using the pure-Python paths. Rebuild with: "
        "python setup.py build_ext --inplace",
        RuntimeWarning,
        stacklevel=2,
    )
    return None


#: the extension module built from the ``_ckernel.c`` beside it, or ``None``.
ckernel: Any
try:  # optional compiled backend; see setup.py
    from repro.sim import _ckernel as ckernel  # type: ignore[attr-defined]
except ImportError:
    ckernel = None
else:
    ckernel = _verified(
        ckernel, os.path.join(os.path.dirname(__file__), "_ckernel.c")
    )
