"""Build shim for the optional compiled sim kernel.

All project metadata lives in pyproject.toml; this file exists only to
declare the optional C extension backing ``Simulation(kernel="compiled")``.
The extension is best-effort: a missing compiler (or any build failure)
degrades to a pure-Python install where ``repro.sim.HAS_COMPILED`` is
False and the "compiled" kernel raises ConfigurationError at
construction.  Build it in place with::

    python setup.py build_ext --inplace

The sha256 of ``_ckernel.c`` is compiled in as ``_ckernel.SOURCE_DIGEST``;
``repro/sim/_compiled.py`` compares it with the source lying beside the
built module, so a stale build degrades to pure Python with a warning
instead of computing with old code.
"""

import hashlib
from pathlib import Path

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

CKERNEL_SOURCE = "src/repro/sim/_ckernel.c"


class OptionalBuildExt(build_ext):
    """Swallow compiler failures so pure-Python installs keep working."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any failure is non-fatal
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            f"warning: building repro.sim._ckernel failed ({exc}); "
            "falling back to the pure-Python packed kernel"
        )


setup(
    ext_modules=[
        Extension(
            "repro.sim._ckernel",
            sources=[CKERNEL_SOURCE],
            define_macros=[
                (
                    "SOURCE_DIGEST",
                    '"%s"' % hashlib.sha256(
                        (Path(__file__).parent / CKERNEL_SOURCE).read_bytes()
                    ).hexdigest(),
                )
            ],
            optional=True,
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
