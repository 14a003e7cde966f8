"""The Bayou cluster harness.

Wires together the full stack — simulator, drifting clocks, network with
partitions and fault filters, reliable broadcast, a TOB engine (sequencer or
Multi-Paxos with Ω), and one Bayou replica per node — and records the
history of every invocation with the instrumentation the formal framework
needs (request timestamps, TOB order, perceived execution traces).

Typical experiment shape::

    cluster = BayouCluster(RList(), BayouConfig(n_replicas=2))
    cluster.schedule_invoke(1.0, 0, RList.append("a"))
    cluster.run_until_quiescent()
    history = cluster.build_history()
    execution = build_abstract_execution(history)
    assert check_fec(execution, "weak").ok
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.broadcast.anti_entropy import AntiEntropy
from repro.broadcast.failure_detector import OmegaFailureDetector
from repro.core.config import BayouConfig
from repro.core.durability import DurableStore
from repro.core.replica import BayouReplica
from repro.core.request import Dot, Req
from repro.core.session import OpFuture, ResponseCallback, Session
from repro.core.stack import MODIFIED, ORIGINAL, build_replica_stack
from repro.datatypes.base import DataType, Operation
from repro.errors import DivergedOrderError, ReplicaUnavailableError
from repro.framework.history import PENDING, STRONG, WEAK, History, HistoryEvent
from repro.net.faults import CrashSchedule, MessageFilter
from repro.net.network import FixedLatency, Network, UniformLatency
from repro.net.node import RoutingNode
from repro.net.partition import PartitionSchedule
from repro.obs import Telemetry, TelemetryScope
from repro.runtime.sim import SimRuntime
from repro.sim.clock import DriftingClock
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRngRegistry
from repro.sim.trace import TraceLog

@dataclass
class _StagedEvent:
    """Mutable per-request record, frozen into a HistoryEvent at the end."""

    dot: Dot
    session: int
    op: Operation
    level: str
    timestamp: float
    invoke_time: float
    readonly: bool
    tob_cast: bool
    rval: Any = PENDING
    return_time: Optional[float] = None
    perceived: Optional[Tuple[Dot, ...]] = None
    stable: bool = False
    responded: bool = False
    seq: int = 0


class BayouCluster:
    """A simulated deployment of the (original or modified) Bayou protocol."""

    def __init__(
        self,
        datatype: DataType,
        config: Optional[BayouConfig] = None,
        *,
        protocol: str = ORIGINAL,
        partitions: Optional[PartitionSchedule] = None,
        filters: Optional[MessageFilter] = None,
        crashes: Optional[CrashSchedule] = None,
        sim: Optional[Simulator] = None,
        name: str = "",
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config or BayouConfig()
        self.config.validate()
        self.protocol = protocol
        self.datatype = datatype
        #: Deployment name; prefixes node names (sharded deployments run
        #: several clusters side by side on one shared simulator).
        self.name = name

        self.sim = sim if sim is not None else Simulator()
        self.trace = (
            TraceLog(capacity=self.config.trace_capacity)
            if self.config.enable_trace
            else None
        )
        #: The deployment's telemetry plane. Sharded deployments pass one
        #: shared plane into every shard; standalone clusters build their
        #: own when ``config.enable_telemetry`` is set.
        if telemetry is None and self.config.enable_telemetry:
            telemetry = Telemetry(trace_capacity=self.config.trace_capacity)
        self.telemetry = telemetry
        #: The cluster's scoped view (prefixes op trace ids with the
        #: deployment name, labels instruments with the shard).
        self._tscope: Optional[TelemetryScope] = (
            telemetry.scoped(self.name) if telemetry is not None else None
        )
        if self._tscope:
            self._h_commit_latency = self._tscope.histogram(
                "repro_op_commit_latency"
            )
            self._h_weak_staleness = self._tscope.histogram(
                "repro_weak_staleness"
            )
            self._c_submitted = self._tscope.counter("repro_ops_submitted")
        self.rngs = SeededRngRegistry(self.config.seed)
        self.partitions = partitions or PartitionSchedule(self.config.n_replicas)
        self.filters = filters or MessageFilter()
        if self.config.latency_jitter > 0:
            latency = UniformLatency(
                self.config.message_delay,
                self.config.message_delay + self.config.latency_jitter,
                self.rngs,
            )
        else:
            latency = FixedLatency(self.config.message_delay)
        self.network = Network(
            self.sim,
            self.config.n_replicas,
            latency=latency,
            partitions=self.partitions,
            filters=self.filters,
            trace=self.trace,
        )
        #: The execution runtime every node and component runs against.
        #: Here it is always the deterministic backend; the same stack runs
        #: over :class:`~repro.runtime.asyncio_net.AsyncioRuntime` in
        #: ``python -m repro serve`` (see :mod:`repro.runtime.serve`).
        self.runtime = SimRuntime(self.sim, self.network)

        self.nodes: List[RoutingNode] = []
        self.clocks: List[DriftingClock] = []
        self.replicas: List[BayouReplica] = []
        self.omegas: List[OmegaFailureDetector] = []
        #: Per-replica stable storage (None entries when durability="none").
        self.stores: List[Optional[DurableStore]] = []
        self.crashes = crashes
        self._staged: Dict[Dot, _StagedEvent] = {}
        self._futures: Dict[Dot, OpFuture] = {}
        self._invocation_seq = 0
        self._build()
        if crashes is not None:
            crashes.arm(self.sim, {node.pid: node for node in self.nodes})

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        config = self.config
        durability_root = None
        if config.durability == "jsonl":
            durability_root = config.durability_dir or tempfile.mkdtemp(
                prefix="repro-durable-"
            )
        for pid in range(config.n_replicas):
            node = RoutingNode(self.runtime, pid, name=f"{self.name}R{pid}")
            clock = DriftingClock(
                self.sim,
                offset=config.clock_offsets.get(pid, 0.0),
                rate=config.clock_rates.get(pid, 1.0),
            )
            replica, omega = build_replica_stack(
                config,
                node,
                clock,
                self.datatype,
                protocol=self.protocol,
                responder=self._make_responder(pid),
                commit_listener=self._on_commit,
                durability_root=durability_root,
                telemetry=self._tscope,
                trace=self.trace,
            )
            if omega is not None:
                self.omegas.append(omega)
            self.nodes.append(node)
            self.clocks.append(clock)
            self.replicas.append(replica)
            self.stores.append(replica.store)

    def _make_responder(self, pid: int):
        def responder(
            req: Req, response: Any, perceived: Tuple[Dot, ...], stable: bool
        ) -> None:
            staged = self._staged.get(req.dot)
            if staged is not None and not staged.responded:
                staged.responded = True
                staged.rval = response
                staged.return_time = self.sim.now
                staged.perceived = perceived
                staged.stable = stable
            future = self._futures.get(req.dot)
            if future is not None:
                future._resolve(req, response, self.sim.now, stable=stable)

        return responder

    def _on_commit(self, req: Req) -> None:
        """First TOB delivery of a request fixes its final position."""
        future = self._futures.get(req.dot)
        if future is not None:
            future._mark_stable(self.sim.now)

    # ------------------------------------------------------------------
    # Invocation API
    # ------------------------------------------------------------------
    def submit(
        self,
        pid: int,
        op: Operation,
        *,
        strong: bool = False,
        future: Optional[OpFuture] = None,
    ) -> OpFuture:
        """Invoke ``op`` on replica ``pid`` right now; returns its future.

        The single response pipeline behind every client style: sessions
        pass their own pre-created future, open-loop callers get a fresh
        one. The future may already be resolved when this returns — the
        modified protocol answers weak operations synchronously inside
        ``invoke()``.
        """
        replica = self.replicas[pid]
        if replica.node.crashed:
            # Name the deployment (the shard, in sharded runs) as well as
            # the replica index: migration/crash interleavings are debugged
            # from this message, and "replica 1" alone does not say *which*
            # shard's replica 1 refused the submission.
            shard_tag = f" of shard {self.name}" if self.name else ""
            raise ReplicaUnavailableError(
                f"replica {pid}{shard_tag} is crashed at t={self.sim.now:g}; "
                "a crashed replica ceases all communication, so clients "
                "cannot reach it"
            )
        invoke_time = self.sim.now
        # Stage the history record *before* invoking: the modified protocol
        # responds to weak operations synchronously inside invoke().
        placeholder_dot = (pid, replica.curr_event_no + 1)
        self._invocation_seq += 1
        staged = _StagedEvent(
            dot=placeholder_dot,
            session=pid,
            op=op,
            level=STRONG if strong else WEAK,
            timestamp=0.0,  # patched below once the request exists
            invoke_time=invoke_time,
            readonly=self.datatype.is_readonly(op),
            tob_cast=True,  # patched below for modified-protocol weak reads
            seq=self._invocation_seq,
        )
        self._staged[placeholder_dot] = staged
        if future is None:
            future = OpFuture(op, strong=strong, pid=pid)
        future._mark_invoked(placeholder_dot, invoke_time)
        self._futures[placeholder_dot] = future
        req = replica.invoke(op, strong=strong)
        assert req.dot == placeholder_dot, "event numbering out of sync"
        if future.request is None:
            future.request = req
        staged.timestamp = req.timestamp
        staged.tob_cast = self._was_tob_cast(req)
        if self._tscope:
            self._instrument_submit(staged, future, req, pid)
        if not staged.tob_cast and future.done:
            # Never-broadcast operations (the modified protocol's invisible
            # reads) hold no position in the final order; their synchronous
            # response is as final as it will ever be.
            future._mark_stable(self.sim.now)
        return future

    def _instrument_submit(
        self, staged: _StagedEvent, future: OpFuture, req: Req, pid: int
    ) -> None:
        """Record the op's client-side spans and lifecycle histograms.

        The respond/stable spans ride the future's callbacks: those fire
        exactly once at the actual transition regardless of which path
        resolved the future (async responder, synchronous modified-weak
        response, origin commit fast path). Registered *after*
        ``staged.tob_cast`` is patched, so a never-broadcast op that is
        already done stabilises with its span parented on the root rather
        than a commit span that will never exist.
        """
        tscope = self._tscope
        assert tscope is not None
        dot = req.dot
        self._c_submitted.inc()
        tscope.op_span(
            staged.invoke_time,
            pid,
            "submit",
            dot,
            "submit",
            "root",
            strong=req.strong,
        )

        def on_respond(f: OpFuture) -> None:
            tscope.op_span(
                self.sim.now, pid, "respond", dot, "respond", "root",
                stable=f.stable,
            )

        def on_stable(f: OpFuture) -> None:
            parent = "commit" if staged.tob_cast else "root"
            tscope.op_span(
                self.sim.now, pid, "stable", dot, "stable", parent
            )
            latency = f.commit_latency
            if latency is not None:
                self._h_commit_latency.observe(latency)
            if not f.strong:
                staleness = f.staleness
                if staleness is not None:
                    self._h_weak_staleness.observe(staleness)

        future.add_done_callback(on_respond)
        future.add_stable_callback(on_stable)

    def invoke(self, pid: int, op: Operation, *, strong: bool = False) -> Req:
        """Invoke ``op`` on replica ``pid`` right now; returns the request."""
        request = self.submit(pid, op, strong=strong).request
        assert request is not None
        return request

    def connect(
        self,
        pid: int,
        *,
        think_time: float = 0.0,
        on_response: Optional[ResponseCallback] = None,
    ) -> Session:
        """Open a closed-loop :class:`Session` against replica ``pid``."""
        return Session(
            self, pid, think_time=think_time, on_response=on_response
        )

    def _was_tob_cast(self, req: Req) -> bool:
        """Whether the request was disseminated through TOB at all."""
        if self.protocol == MODIFIED and not req.strong:
            return not self.datatype.is_readonly(req.op)
        return True

    def schedule_invoke(
        self, at: float, pid: int, op: Operation, *, strong: bool = False
    ) -> None:
        """Plan an invocation at absolute simulated time ``at``."""
        self.sim.schedule_at(
            at,
            lambda: self.invoke(pid, op, strong=strong),
            label=f"invoke R{pid} {op}",
        )

    # ------------------------------------------------------------------
    # Crash control
    # ------------------------------------------------------------------
    def crash_replica(self, pid: int, mode: str = "recover") -> None:
        """Crash replica ``pid`` right now (``mode``: "stop" or "recover")."""
        self.nodes[pid].crash(mode)

    def recover_replica(self, pid: int) -> None:
        """Recover a crashed replica: every component reloads its durable
        state, catches up with peers and resumes periodic work."""
        self.nodes[pid].recover()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation (optionally up to an absolute time)."""
        self.sim.run(until=until)

    def run_until_quiescent(self) -> float:
        """Run until no events remain (natural with the sequencer engine)."""
        return self.sim.run_until_quiescent()

    def run_until_stable(
        self, *, max_time: float = 100_000.0, check_every: float = 50.0
    ) -> bool:
        """Run until converged-and-idle or ``max_time`` (for Paxos runs).

        Returns True if the cluster converged: every non-pending staged
        request answered, replicas agree on ``committed · tentative`` and
        have empty backlogs.
        """
        while self.sim.now < max_time:
            self.sim.run(until=self.sim.now + check_every)
            if self.converged() and self.sim.pending_events == 0:
                return True
            if self.converged() and self._only_periodic_work_left():
                return True
        return self.converged()

    def _only_periodic_work_left(self) -> bool:
        """Heuristic: all client requests answered and replicas drained."""
        unanswered = [
            staged
            for staged in self._staged.values()
            if not staged.responded and not self._response_lost(staged)
        ]
        backlogs = any(
            replica.backlog
            for replica in self.replicas
            if not replica.node.crashed
        )
        return not unanswered and not backlogs

    def _response_lost(self, staged: _StagedEvent) -> bool:
        """Whether a crash made this request permanently unanswerable.

        With stable storage, a replica that crashes drops its volatile
        response bookkeeping at recovery, so any request invoked on it
        before the crash that had not responded yet never will (even if
        the request itself survives in the durable write-ahead log and
        still commits). Without stable storage the in-memory bookkeeping
        survives recovery — a pending response can still arrive — so only
        a *permanent* (crash-stop) outage writes the request off. Either
        way such events stay PENDING in the history; stability detection
        must not wait for them.
        """
        replica = self.replicas[staged.session]
        crashed_after_invoke = any(
            at >= staged.invoke_time for at in replica.crash_times
        )
        if replica.store is not None:
            return crashed_after_invoke
        return (
            crashed_after_invoke
            and replica.node.crashed
            and replica.node.crash_mode == "stop"
        )

    def shutdown(self) -> None:
        """Stop all periodic activity so in-flight events can drain."""
        for replica in self.replicas:
            replica.stop()
            if replica.tob is not None:
                replica.tob.stop()
            if isinstance(replica.rb, AntiEntropy):
                replica.rb.stop()
        for omega in self.omegas:
            omega.stop()

    # ------------------------------------------------------------------
    # Probing and history construction
    # ------------------------------------------------------------------
    def add_horizon_probes(
        self,
        make_op: Callable[[], Operation],
        *,
        spacing: Optional[float] = None,
    ) -> float:
        """Mark the stabilisation horizon and issue one probe per replica.

        The probes are weak operations invoked after the horizon; the EV and
        CPar finite-run checks quantify over them. Probes are spaced widely
        enough that clock *offsets* cannot reverse their timestamp order
        (the paper's visibility rule for never-broadcast read-only events
        compares request timestamps). Runs with differing clock *rates*
        should not rely on EV probes. Returns the horizon time.
        """
        horizon = self.sim.now
        self._horizon = horizon
        if spacing is None:
            offsets = [
                self.config.clock_offsets.get(pid, 0.0)
                for pid in range(self.config.n_replicas)
            ]
            spacing = 1.0 + 2.0 * (max(offsets) - min(offsets))
        for pid in range(self.config.n_replicas):
            self.schedule_invoke(horizon + 1.0 + pid * spacing, pid, make_op())
        return horizon

    def build_history(
        self, *, horizon: Optional[float] = None, well_formed: bool = True
    ) -> History:
        """Freeze the staged records into a checkable History."""
        tob_order = self._consistent_tob_order()
        tob_index = {dot: index for index, dot in enumerate(tob_order)}
        events = []
        for staged in self._staged.values():
            events.append(
                HistoryEvent(
                    eid=staged.dot,
                    session=staged.session,
                    op=staged.op,
                    level=staged.level,
                    invoke_time=staged.invoke_time,
                    return_time=staged.return_time,
                    rval=staged.rval if staged.responded else PENDING,
                    timestamp=staged.timestamp,
                    readonly=staged.readonly,
                    tob_cast=staged.tob_cast,
                    tob_no=tob_index.get(staged.dot),
                    perceived_trace=staged.perceived,
                    stable=staged.stable,
                    seq=staged.seq,
                )
            )
        effective_horizon = horizon if horizon is not None else getattr(
            self, "_horizon", None
        )
        return History(
            events,
            self.datatype,
            horizon=effective_horizon,
            well_formed=well_formed,
        )

    def _consistent_tob_order(self) -> List[Dot]:
        """The TOB delivery order; checks replicas saw consistent prefixes.

        Raises :class:`DivergedOrderError` (with a readable diff of the two
        sequences) if any replica's delivered sequence is not a prefix of
        the longest one — a violation of TOB's total-order property.
        """
        sequences = [
            replica.tob.delivered_sequence
            for replica in self.replicas
            if replica.tob is not None
        ]
        longest: List[Dot] = max(sequences, key=len, default=[])
        for sequence in sequences:
            if sequence != longest[: len(sequence)]:
                raise DivergedOrderError.from_sequences(sequence, longest)
        return longest

    # ------------------------------------------------------------------
    # Convergence diagnostics
    # ------------------------------------------------------------------
    def converged(self) -> bool:
        """All live replicas agree on the order and have fully executed it.

        Crashed replicas are excluded: a crash-stop replica can never catch
        up (by definition), and a crash–recovery replica rejoins the check
        the moment it recovers — E11's convergence criterion is exactly
        that a *recovered* replica is indistinguishable from a survivor
        here.
        """
        live = [
            replica for replica in self.replicas if not replica.node.crashed
        ]
        if not live:
            return False
        orders = [[r.dot for r in replica.current_order()] for replica in live]
        if any(order != orders[0] for order in orders[1:]):
            return False
        if any(replica.backlog for replica in live):
            return False
        snapshots = [replica.state.snapshot() for replica in live]
        return all(snapshot == snapshots[0] for snapshot in snapshots[1:])

    def convergence_report(self) -> Dict[str, Any]:
        """Structured convergence diagnostics for experiment reports."""
        return {
            "converged": self.converged(),
            "crashed": [r.node.crashed for r in self.replicas],
            "committed_lengths": [len(r.committed) for r in self.replicas],
            "tentative_lengths": [len(r.tentative) for r in self.replicas],
            "backlogs": [r.backlog for r in self.replicas],
            "executions": [r.execution_count for r in self.replicas],
            "rollbacks": [r.rollback_count for r in self.replicas],
            "downtimes": [r.downtime for r in self.replicas],
        }
