"""One Bayou replica's component stack, built from a :class:`BayouConfig`.

The paper's replica is Algorithm 1 (or 2) over an RB layer and a TOB
layer. :func:`build_replica_stack` is the one place that maps a config to
those parts: the replica class, RB or anti-entropy dissemination, the
sequencer or Ω plus Multi-Paxos TOB (every ``paxos_*`` knob, batch
delivery), the durability store and the re-announce hooks. The simulated
:class:`~repro.core.cluster.BayouCluster` and the socket
:class:`~repro.runtime.serve.ReplicaServer` both call it; only the node's
runtime (sim kernel or asyncio) and the clock differ between them.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional, Tuple

from repro.broadcast.anti_entropy import AntiEntropy
from repro.broadcast.failure_detector import OmegaFailureDetector
from repro.broadcast.paxos import PaxosTOB
from repro.broadcast.reliable import ReliableBroadcast
from repro.broadcast.sequencer import SequencerTOB
from repro.core.config import BayouConfig
from repro.core.durability import DurableStore, open_store
from repro.core.modified_replica import ModifiedBayouReplica
from repro.core.replica import BayouReplica, Responder
from repro.core.request import Req
from repro.datatypes.base import DataType
from repro.net.node import RoutingNode
from repro.sim.clock import DriftingClock
from repro.sim.trace import TraceLog

#: Protocol selector values.
ORIGINAL = "original"
MODIFIED = "modified"


def build_replica_stack(
    config: BayouConfig,
    node: RoutingNode,
    clock: DriftingClock,
    datatype: DataType,
    *,
    protocol: str = ORIGINAL,
    responder: Optional[Responder] = None,
    commit_listener: Optional[Callable[[Req], None]] = None,
    durability_root: Optional[str] = None,
    telemetry: Optional[Any] = None,
    trace: Optional[TraceLog] = None,
) -> Tuple[BayouReplica, Optional[OmegaFailureDetector]]:
    """Build one replica and its RB and TOB endpoints on ``node``.

    Returns the replica (its ``rb``, ``tob`` and ``store`` wired) and the
    Ω detector of a Paxos stack (``None`` for the sequencer). Ω's start
    and, over a restored store, the re-announce of uncommitted requests
    are scheduled at time 0 on the node's runtime, so they run once every
    endpoint here exists.
    """
    if protocol not in (ORIGINAL, MODIFIED):
        raise ValueError(f"unknown protocol {protocol!r}")
    replica_class = ModifiedBayouReplica if protocol == MODIFIED else BayouReplica
    store: Optional[DurableStore]
    if config.durability == "jsonl":
        # One directory per replica under the deployment's root.
        if durability_root is None:
            raise ValueError("jsonl durability needs a durability directory")
        store = open_store(
            "jsonl", directory=os.path.join(durability_root, f"node{node.pid}")
        )
    else:
        store = open_store(config.durability)
    replica = replica_class(
        node,
        clock,
        datatype,
        config,
        trace=trace,
        responder=responder,
        store=store,
        telemetry=telemetry,
    )
    if config.dissemination == "anti_entropy":
        replica.rb = AntiEntropy(
            node,
            replica.on_rb_deliver,
            deliver_batch=replica.on_rb_deliver_batch,
            sync_interval=config.ae_sync_interval,
            trace=trace,
            store=store,
            telemetry=telemetry,
        )
    else:
        replica.rb = ReliableBroadcast(
            node, replica.on_rb_deliver, trace=trace, store=store
        )
    omega: Optional[OmegaFailureDetector] = None
    if config.tob_engine == "sequencer":
        replica.tob = SequencerTOB(
            node,
            replica.on_tob_deliver,
            sequencer_pid=config.sequencer_pid,
            trace=trace,
            store=store,
            telemetry=telemetry,
        )
    else:
        omega = OmegaFailureDetector(
            node,
            heartbeat_interval=config.heartbeat_interval,
            timeout=config.failure_timeout,
            trace=trace,
        )
        replica.tob = PaxosTOB(
            node,
            replica.on_tob_deliver,
            omega,
            retry_interval=config.paxos_retry_interval,
            max_batch=config.paxos_max_batch,
            max_inflight=config.paxos_max_inflight,
            dual_2b=config.paxos_dual_2b,
            max_gap=config.paxos_max_gap,
            catchup_batch=config.paxos_catchup_batch,
            catchup_rate=config.paxos_catchup_rate,
            catchup_burst=config.paxos_catchup_burst,
            deliver_batch=replica.on_tob_deliver_batch,
            trace=trace,
            store=store,
            telemetry=telemetry,
        )
        node.runtime.schedule(0.0, omega.start, label=f"omega start {node.pid}")
    replica.commit_listener = commit_listener
    # Registered last, so it runs after every component on this node
    # rebuilt its own state: the replica's uncommitted requests are
    # re-advertised only once the endpoints can carry them.
    node.register_crash_hooks(on_recover=replica.reannounce)
    if replica.restored_from_store:
        # Rebuilt over a previous incarnation's disk: re-advertise
        # uncommitted requests once the run starts.
        node.runtime.schedule(
            0.0, replica.reannounce, label=f"reannounce R{node.pid}"
        )
    return replica, omega
