"""The repository's performance ruler: five workloads, end-to-end and
per-layer metrics, named in the root ``BENCHMARK.json``.

Run as ``python -m benchmarks.perf`` (or ``python benchmarks/perf/__main__.py``)
from the repository root; see ``README.md`` in this directory. The package
imports only the public ``repro`` API and nothing from the sibling
``benchmarks/*.py`` scripts.
"""
