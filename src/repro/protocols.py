"""The protocol registry: every stack a :class:`~repro.sim.replay.RunSpec`
can name.

A registered protocol is a name in :data:`PROTOCOLS` mapping to a function
of plain-value keyword arguments returning the layers of one process (bottom
first), and the detector components those layers read besides Ω. A spec
names its protocol and arguments; :func:`~repro.sim.replay.build_simulation` asks this module
for the processes (:func:`protocol_processes`) and for the detector history
(:func:`protocol_detector`), so "protocol name → stack" and "detector
configuration → history" are each decided here and nowhere else.

The built-in names:

- ``etob`` — Algorithm 5; ``etob-arrival-order`` — its ablation that
  promotes in arrival order, without the causal graph;
- ``ec`` / ``eic`` — Algorithm 4 / native EIC plus the standard driver
  (``instances``);
- ``ec-etob`` — ETOB from EC (Algorithm 1 over Algorithm 4); ``etob-ec`` —
  EC from ETOB (Algorithm 2 over Algorithm 5, driven for ``instances``);
- ``tob-consensus`` — strong TOB over Paxos (``quorum_mode`` ``"majority"``
  or ``"sigma"``; the latter reads Σ);
- ``tob-ct`` — strong TOB over Chandra–Toueg consensus (reads ◇S).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.consensus import (
    ChandraTouegConsensusLayer,
    PaxosConsensusLayer,
    TobFromConsensusLayer,
)
from repro.core import (
    EcDriverLayer,
    EcUsingOmegaLayer,
    EicDriverLayer,
    EicUsingOmegaLayer,
    EtobLayer,
)
from repro.core.etob_variants import ArrivalOrderEtobLayer
from repro.core.transformations import EcToEtobLayer, EtobToEcLayer
from repro.detectors import (
    CompositeDetector,
    EventuallyStrongDetector,
    OmegaDetector,
    SigmaDetector,
)
from repro.sim.errors import ConfigurationError
from repro.sim.stack import Layer, ProtocolStack

__all__ = [
    "PROTOCOLS",
    "ProtocolEntry",
    "protocol_detector",
    "protocol_processes",
]


def _omega_only(**args: Any) -> tuple[str, ...]:
    return ()


@dataclass(frozen=True)
class ProtocolEntry:
    """One registered protocol (see the module docstring)."""

    #: (**args) -> the layers of one process, bottom first.
    layers: Callable[..., list[Layer]]
    #: (**args) -> the detector components read besides Ω, by name.
    components: Callable[..., tuple[str, ...]] = _omega_only


def _paxos_components(quorum_mode: str = "majority") -> tuple[str, ...]:
    return ("sigma",) if quorum_mode == "sigma" else ()


#: name -> entry.
PROTOCOLS: dict[str, ProtocolEntry] = {
    "etob": ProtocolEntry(lambda: [EtobLayer()]),
    "etob-arrival-order": ProtocolEntry(lambda: [ArrivalOrderEtobLayer()]),
    "ec": ProtocolEntry(
        lambda instances=10: [
            EcUsingOmegaLayer(), EcDriverLayer(max_instances=instances)
        ]
    ),
    "eic": ProtocolEntry(
        lambda instances=10: [
            EicUsingOmegaLayer(), EicDriverLayer(max_instances=instances)
        ]
    ),
    "ec-etob": ProtocolEntry(lambda: [EcUsingOmegaLayer(), EcToEtobLayer()]),
    "etob-ec": ProtocolEntry(
        lambda instances=10: [
            EtobLayer(), EtobToEcLayer(), EcDriverLayer(max_instances=instances)
        ]
    ),
    "tob-consensus": ProtocolEntry(
        lambda quorum_mode="majority": [
            PaxosConsensusLayer(quorum_mode=quorum_mode), TobFromConsensusLayer()
        ],
        _paxos_components,
    ),
    "tob-ct": ProtocolEntry(
        lambda: [ChandraTouegConsensusLayer(), TobFromConsensusLayer()],
        lambda: ("suspects",),
    ),
}

#: detector component name -> its detector, stabilizing with Ω.
_COMPONENTS = {"sigma": SigmaDetector, "suspects": EventuallyStrongDetector}


def _entry(name: str | None) -> ProtocolEntry:
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r}; registered: {list(PROTOCOLS)}"
        ) from None


def protocol_processes(spec) -> list[ProtocolStack]:
    """One fresh stack of the spec's protocol per process."""
    layers, args = _entry(spec.protocol).layers, dict(spec.protocol_args)
    return [ProtocolStack(layers(**args)) for _ in range(spec.n)]


def protocol_detector(spec):
    """The spec's detector history: Ω at ``spec.tau``, composed with the
    components its protocol reads (none for caller-supplied processes);
    ``None`` when ``spec.tau`` is ``None``."""
    if spec.tau is None:
        return None
    detector = OmegaDetector(
        stabilization_time=spec.tau, leader=spec.leader, pre_behavior=spec.pre
    )
    components = (
        _entry(spec.protocol).components(**dict(spec.protocol_args))
        if spec.protocol is not None
        else ()
    )
    if components:
        detector = CompositeDetector(
            {
                "omega": detector,
                **{
                    name: _COMPONENTS[name](stabilization_time=spec.tau)
                    for name in components
                },
            }
        )
    return detector.history(spec.failure_pattern(), seed=spec.seed)
