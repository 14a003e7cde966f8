"""``python -m repro serve`` — one real Bayou replica over TCP.

This is the asyncio deployment of the *identical* protocol stack the
simulator runs: a :class:`~repro.net.node.RoutingNode` hosting the
dissemination endpoint (RB or anti-entropy), a TOB engine (sequencer or
Multi-Paxos with Ω) and a :class:`~repro.core.replica.BayouReplica` — all
built by :func:`~repro.core.stack.build_replica_stack`, the function
:class:`~repro.core.cluster.BayouCluster` builds its replicas with, but
over an :class:`~repro.runtime.asyncio_net.AsyncioRuntime` instead of a
:class:`~repro.runtime.sim.SimRuntime`. No protocol file knows which one
it got.

A cluster is described by a JSON spec file shared by all members::

    {"n_replicas": 3, "host": "127.0.0.1", "ports": [7701, 7702, 7703],
     "datatype": "kvstore", "tob_engine": "sequencer"}

Start each member in its own OS process::

    python -m repro serve --replica 0 --config cluster.json

Clients speak the framed RPC protocol on the replica's port (see
:class:`repro.runtime.launcher.RealtimeClient`): ``ping`` (health),
``invoke`` (submit an operation, optionally waiting for its tentative
response or its committed/stable fate), ``status`` (committed order,
backlog, state snapshot — what convergence checks read) and ``shutdown``.
``SIGTERM``/``SIGINT`` shut the process down cleanly (exit code 0).
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import signal
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.broadcast.anti_entropy import AntiEntropy
from repro.core.config import BayouConfig
from repro.core.request import Dot, Req
from repro.core.stack import build_replica_stack
from repro.datatypes import BankAccounts, Counter, KVStore, Register
from repro.net.node import RoutingNode
from repro.obs import Telemetry
from repro.runtime.asyncio_net import AsyncioRuntime
from repro.sim.clock import DriftingClock

#: Datatypes a real deployment can serve (name -> zero-arg factory).
DATATYPES = {
    "kvstore": KVStore,
    "counter": Counter,
    "bank": BankAccounts,
    "register": Register,
}


@dataclass
class ClusterSpec:
    """The shared description of one realtime deployment."""

    n_replicas: int = 3
    host: str = "127.0.0.1"
    ports: List[int] = field(default_factory=list)
    datatype: str = "kvstore"
    tob_engine: str = "sequencer"
    dissemination: str = "rb"
    sequencer_pid: int = 0
    #: Real seconds per internal replica step; 0 = as fast as the loop runs.
    exec_delay: float = 0.0
    ae_sync_interval: float = 0.05
    heartbeat_interval: float = 0.5
    failure_timeout: float = 2.0
    paxos_retry_interval: float = 1.0
    retransmit_interval: Optional[float] = None
    durability: str = "none"
    durability_dir: Optional[str] = None
    #: Arm the telemetry plane: causal op traces (propagated across TCP
    #: frames) and transport/engine instruments, read via the
    #: ``telemetry`` RPC verb.
    telemetry: bool = False

    def validate(self) -> None:
        if self.datatype not in DATATYPES:
            raise ValueError(
                f"unknown datatype {self.datatype!r}; "
                f"choose from {sorted(DATATYPES)}"
            )
        if len(self.ports) != self.n_replicas:
            raise ValueError(
                f"spec needs exactly n_replicas={self.n_replicas} ports, "
                f"got {len(self.ports)}"
            )
        self.to_config().validate()

    def to_config(self) -> BayouConfig:
        """The :class:`BayouConfig` equivalent of this spec.

        Perceived-trace capture and the diagnostic trace log are off: they
        exist for the formal framework's deterministic checks, and a real
        deployment pays their O(n²) memory for nothing.
        """
        return BayouConfig(
            n_replicas=self.n_replicas,
            exec_delay=self.exec_delay,
            tob_engine=self.tob_engine,
            sequencer_pid=self.sequencer_pid,
            dissemination=self.dissemination,
            ae_sync_interval=self.ae_sync_interval,
            heartbeat_interval=self.heartbeat_interval,
            failure_timeout=self.failure_timeout,
            paxos_retry_interval=self.paxos_retry_interval,
            retransmit_interval=self.retransmit_interval,
            durability=self.durability,
            durability_dir=self.durability_dir,
            record_perceived_traces=False,
            enable_trace=False,
            enable_telemetry=self.telemetry,
        )

    def peers(self) -> Dict[int, Tuple[str, int]]:
        return {pid: (self.host, self.ports[pid]) for pid in range(self.n_replicas)}

    def to_json(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ClusterSpec":
        spec = cls(**data)
        spec.validate()
        return spec

    @classmethod
    def load(cls, path: str) -> "ClusterSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2)


class ReplicaServer:
    """One replica process: the full Bayou stack on an AsyncioRuntime."""

    def __init__(self, spec: ClusterSpec, pid: int) -> None:
        spec.validate()
        if not (0 <= pid < spec.n_replicas):
            raise ValueError(f"replica {pid} out of range 0..{spec.n_replicas - 1}")
        self.spec = spec
        self.pid = pid
        config = spec.to_config()
        #: Same plane as the simulator's, timestamped with wall-clock
        #: runtime seconds instead of sim time.
        self.telemetry: Optional[Telemetry] = (
            Telemetry() if spec.telemetry else None
        )
        self.runtime = AsyncioRuntime(
            pid, spec.peers(), telemetry=self.telemetry
        )
        self.node = RoutingNode(self.runtime, pid, name=f"rt-R{pid}")
        self.replica, self.omega = build_replica_stack(
            config,
            self.node,
            DriftingClock(self.runtime.timeview),
            DATATYPES[spec.datatype](),
            responder=self._on_response,
            commit_listener=self._on_commit,
            durability_root=config.durability_dir,
            telemetry=self.telemetry,
        )
        self.runtime.rpc_handler = self._handle_rpc
        #: dot -> futures resolved at first response / at commit.
        self._response_waiters: Dict[Dot, List[asyncio.Future]] = {}
        self._stable_waiters: Dict[Dot, List[asyncio.Future]] = {}
        self._responses: Dict[Dot, Any] = {}
        self._done: Optional[asyncio.Future] = None

    # ------------------------------------------------------------------
    # Replica plumbing
    # ------------------------------------------------------------------
    def _on_response(
        self, req: Req, response: Any, perceived: Tuple[Dot, ...], stable: bool
    ) -> None:
        self._responses[req.dot] = response
        if self.telemetry and req.dot[0] == self.pid:
            self.telemetry.op_span(
                self.runtime.now(), self.pid, "respond", req.dot,
                "respond", "root", stable=stable,
            )
        for future in self._response_waiters.pop(req.dot, []):
            if not future.done():
                future.set_result(response)

    def _on_commit(self, req: Req) -> None:
        if self.telemetry and req.dot[0] == self.pid:
            # Every served op is TOB-broadcast (base protocol), so its
            # stabilisation always hangs off the commit — the same edge
            # the simulator's cluster surface records for broadcast ops.
            self.telemetry.op_span(
                self.runtime.now(), self.pid, "stable", req.dot,
                "stable", "commit",
            )
        for future in self._stable_waiters.pop(req.dot, []):
            if not future.done():
                future.set_result(True)

    # ------------------------------------------------------------------
    # RPC surface
    # ------------------------------------------------------------------
    async def _handle_rpc(self, verb: str, args: Dict[str, Any]) -> Any:
        if verb == "ping":
            return {"pid": self.pid, "time": self.runtime.now(), "ok": True}
        if verb == "invoke":
            return await self._rpc_invoke(args)
        if verb == "status":
            return self._rpc_status()
        if verb == "telemetry":
            if self.telemetry is None:
                return {"enabled": False}
            return {
                "enabled": True,
                "spans": self.telemetry.spans_jsonable(),
                "metrics": self.telemetry.registry.snapshot(),
            }
        if verb == "shutdown":
            if self._done is not None and not self._done.done():
                self._done.set_result("rpc")
            return {"ok": True}
        raise ValueError(f"unknown RPC verb {verb!r}")

    async def _rpc_invoke(self, args: Dict[str, Any]) -> Dict[str, Any]:
        op = args["op"]
        strong = bool(args.get("strong", False))
        wait = args.get("wait", "response")
        if wait not in ("none", "response", "stable"):
            raise ValueError(f"unknown wait mode {wait!r}")
        loop = asyncio.get_running_loop()
        response_future: asyncio.Future = loop.create_future()
        stable_future: asyncio.Future = loop.create_future()
        req = self.replica.invoke(op, strong=strong)
        if self.telemetry:
            self.telemetry.op_span(
                self.runtime.now(), self.pid, "submit", req.dot,
                "submit", "root", strong=strong,
            )
        if req.dot in self._responses:
            response_future.set_result(self._responses[req.dot])
        else:
            self._response_waiters.setdefault(req.dot, []).append(response_future)
        if req.dot in self.replica._committed_dots:
            stable_future.set_result(True)
        else:
            self._stable_waiters.setdefault(req.dot, []).append(stable_future)
        reply: Dict[str, Any] = {"dot": req.dot, "timestamp": req.timestamp}
        if wait == "response":
            reply["value"] = await response_future
        elif wait == "stable":
            await stable_future
            reply["value"] = await response_future
            reply["stable"] = True
        return reply

    def _rpc_status(self) -> Dict[str, Any]:
        replica = self.replica
        return {
            "pid": self.pid,
            "committed": [req.dot for req in replica.committed],
            "tentative": [req.dot for req in replica.tentative],
            "backlog": replica.backlog,
            "executed": len(replica.executed),
            "state": replica.state.snapshot(),
            "curr_event_no": replica.curr_event_no,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.runtime.start()

    async def stop(self) -> None:
        self.replica.stop()
        if self.replica.tob is not None:
            self.replica.tob.stop()
        if isinstance(self.replica.rb, AntiEntropy):
            self.replica.rb.stop()
        if self.omega is not None:
            self.omega.stop()
        await self.runtime.stop()

    async def run_forever(self) -> str:
        """Serve until SIGTERM/SIGINT or a ``shutdown`` RPC; returns why."""
        loop = asyncio.get_running_loop()
        self._done = loop.create_future()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, self._signal_shutdown, signal.Signals(signum).name
                )
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await self.start()
        try:
            return await self._done
        finally:
            await self.stop()

    def _signal_shutdown(self, signame: str) -> None:
        if self._done is not None and not self._done.done():
            self._done.set_result(signame)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run one real Bayou replica: the identical protocol stack the "
            "simulator runs, over asyncio TCP between OS processes."
        ),
    )
    parser.add_argument(
        "--replica",
        type=int,
        required=True,
        metavar="N",
        help="which member of the cluster spec this process is (0-based)",
    )
    parser.add_argument(
        "--config",
        required=True,
        metavar="PATH",
        help="path to the shared cluster-spec JSON file",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    spec = ClusterSpec.load(args.config)
    server = ReplicaServer(spec, args.replica)
    host, port = spec.peers()[args.replica]
    print(
        f"replica {args.replica}/{spec.n_replicas} serving "
        f"{spec.datatype} on {host}:{port} "
        f"(tob={spec.tob_engine}, dissemination={spec.dissemination})",
        flush=True,
    )
    reason = asyncio.run(server.run_forever())
    print(f"replica {args.replica} shut down ({reason})", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
