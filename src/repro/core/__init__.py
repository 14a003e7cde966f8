"""The Bayou protocol — the paper's primary contribution.

- :class:`~repro.core.request.Req`: timestamped, dotted client requests with
  the paper's ``(timestamp, dot)`` total order.
- :class:`~repro.core.state_object.StateObject`: Algorithm 3 — execute /
  rollback over a register map with per-request undo logs.
- :class:`~repro.core.replica.BayouReplica`: Algorithm 1 — speculative
  timestamp ordering (tentative list) reconciled against TOB (committed
  list), with rollback and re-execution as schedulable internal steps.
- :class:`~repro.core.modified_replica.ModifiedBayouReplica`: Algorithm 2 —
  the paper's improved protocol that avoids circular causality and makes
  weak operations bounded wait-free.
- :class:`~repro.core.cluster.BayouCluster`: the end-to-end harness gluing
  simulator, network, broadcast stack, replicas and history recording.
- :class:`~repro.core.session.Session` and
  :class:`~repro.core.session.OpFuture`: the futures-based client pipeline.
"""

from repro.core.cluster import BayouCluster
from repro.core.config import BayouConfig
from repro.core.modified_replica import ModifiedBayouReplica
from repro.core.replica import BayouReplica
from repro.core.request import Dot, Req
from repro.core.session import OpFuture, Session
from repro.core.state_object import StateObject

__all__ = [
    "BayouCluster",
    "BayouConfig",
    "BayouReplica",
    "Dot",
    "ModifiedBayouReplica",
    "OpFuture",
    "Req",
    "Session",
    "StateObject",
]
