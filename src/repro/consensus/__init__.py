"""Strong (classical) consensus and total order broadcast baselines.

The paper positions ETOB against the classical replicated-state-machine
stack: consensus from Omega with majority quorums (three communication steps
per decision with a stable leader, blocked without a correct majority) or
from Omega + Sigma (quorums from Sigma, live in any environment where Sigma
is implementable). This package provides:

- :mod:`repro.consensus.paxos` — a multi-instance Paxos synod whose proposer
  is driven by Omega, with pluggable quorums (majority or Sigma);
- :mod:`repro.consensus.chandra_toueg` — the original rotating-coordinator
  algorithm of [3] driven by a diamond-S suspected-set detector;
- :mod:`repro.consensus.tob` — strong total order broadcast from repeated
  consensus (the classical transformation of [3]).
"""

from repro.consensus.chandra_toueg import ChandraTouegConsensusLayer
from repro.consensus.paxos import PaxosConsensusLayer
from repro.consensus.tob import TobFromConsensusLayer

__all__ = [
    "ChandraTouegConsensusLayer",
    "PaxosConsensusLayer",
    "TobFromConsensusLayer",
]
