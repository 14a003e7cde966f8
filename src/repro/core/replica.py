"""The Bayou replica — Algorithm 1 of the paper.

Every structure and handler below maps line-for-line onto the pseudocode:

- ``invoke`` (lines 9–15): stamp the operation with the local clock and a
  fresh dot, RB-cast and TOB-cast it, simulate immediate local RB-delivery
  by inserting it into the tentative order, and register it as awaiting a
  response.
- ``adjust_tentative_order`` (lines 16–21): keep ``tentative`` sorted by
  ``(timestamp, dot)`` and recompute the execution schedule.
- ``on_rb_deliver`` (lines 22–26) and ``on_tob_deliver`` (lines 27–34).
- ``adjust_execution`` (lines 35–40): diff the executed prefix against the
  new order; everything after the longest common prefix is rolled back (in
  reverse) and re-executed.
- the two ``upon`` internal events (lines 41–55) run as *schedulable
  simulation steps* with a per-replica processing delay, which is what makes
  the paper's "local execution is for some reason delayed" (Figure 1) and
  the slow replica of Section 2.3 expressible.

Responses: weak operations return at their first execution (line 50); strong
operations return once executed *and* committed (line 49 or lines 32–33).

Engine invariants (shared by both reorder engines, see ``docs/PERFORMANCE.md``):

- ``executed`` is always a *prefix* of the most recently adjusted order, and
  ``executed ++ to_be_executed`` equals that order as a sequence. This is
  what lets the hot paths below (tail insertion, head commit) skip
  ``adjust_execution`` altogether: an insertion at the very tail of
  ``committed · tentative`` extends the schedule by exactly that request,
  and a TOB commit of the current tentative head leaves the concatenated
  sequence — and therefore the schedule — untouched.
- divergence index: every other change to the order passes
  ``adjust_execution`` the first index at which the new order can differ
  from the last adjusted one (``len(committed) +`` the insertion point for
  a mid-list insert, the smallest one for an RB batch, ``len(committed) -
  1`` for a commit of a non-head or unknown request). ``executed`` up to
  that index still matches, so the diff compares, truncates and
  reschedules only the suffix from there: O(divergent suffix), not
  O(history). The same prefix property makes "is the just-committed
  request executed?" the O(1) test ``len(executed) >= len(committed)``.
- the state object's live trace equals ``executed ++
  reversed(to_be_rolled_back)`` at all times, so draining the rollback queue
  is equivalent to ``StateObject.revert_to(len(executed))`` — the batched
  engine uses exactly that, restoring from a checkpoint at or before the
  divergence point when one is closer than the undo-log tail.
- rollback/execution *counts* are logical: the same sequence of schedule
  adjustments produces the same ``rollback_count`` whether the work is done
  stepwise (one simulation event per request, the paper's literal reading)
  or batched (the whole backlog in one event). The *schedules themselves*
  can differ across engines under backlog: the batched engine executes
  later, so overlapping reorder storms can coalesce — never more logical
  rollbacks than stepwise, sometimes fewer (see ``docs/PERFORMANCE.md``);
  checkpointing, by contrast, never changes any count.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.broadcast.reliable import ReliableBroadcast
from repro.broadcast.total_order import TotalOrderBroadcast
from repro.core.config import BayouConfig
from repro.core.durability import DurableStore, from_jsonable, to_jsonable
from repro.core.request import Dot, Req
from repro.core.state_object import StateObject
from repro.datatypes.base import DataType, Operation
from repro.net.node import RoutingNode
from repro.sim.clock import DriftingClock
from repro.sim.trace import TraceLog

#: responder(req, response, perceived_trace, stable)
Responder = Callable[[Req, Any, Tuple[Dot, ...], bool], None]

#: Sentinel for "awaiting, no response computed yet" (⊥ in the paper).
_NO_RESPONSE = object()


class BayouReplica:
    """One replica of the (original) Bayou protocol."""

    def __init__(
        self,
        node: RoutingNode,
        clock: DriftingClock,
        datatype: DataType,
        config: BayouConfig,
        *,
        trace: Optional[TraceLog] = None,
        responder: Optional[Responder] = None,
        store: Optional[DurableStore] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.node = node
        self.pid = node.pid
        self.clock = clock
        self.datatype = datatype
        self.config = config
        self.trace = trace
        #: Telemetry plane or scope (``None`` or disabled both short-circuit
        #: every instrumentation site to a single false branch). Hot-path
        #: instruments are resolved once here, not per event.
        self.telemetry = telemetry
        if telemetry is not None:
            self._maint_trace = telemetry.named_trace(f"maint-{self.pid}")
            self._maint_seq = 0
            self._m_execs = telemetry.counter(
                "repro_executions", replica=self.pid
            )
            self._m_rollbacks = telemetry.counter(
                "repro_rollbacks", replica=self.pid
            )
            self._m_commits = telemetry.counter(
                "repro_commits_delivered", replica=self.pid
            )
        self.responder = responder
        #: Stable storage (None = the seed's purely volatile replica). The
        #: write-ahead log, commit order, event counter and committed-prefix
        #: checkpoints live here; :meth:`_on_node_recover` reloads them.
        self.store = store

        #: Optional hook called on every TOB commit (the cluster uses it to
        #: stabilise the request's OpFuture).
        self.commit_listener: Optional[Callable[[Req], None]] = None

        self.state = StateObject(
            datatype, checkpoint_interval=config.checkpoint_interval
        )
        self.curr_event_no = 0
        self.committed: List[Req] = []
        self.tentative: List[Req] = []
        self.executed: List[Req] = []
        #: Mirror of ``[r.dot for r in executed]`` so perceived-trace capture
        #: is a C-level tuple copy instead of an O(n) comprehension per
        #: response (a hot path: every weak response snapshots the trace).
        self._executed_dots: List[Dot] = []
        self.to_be_executed: List[Req] = []
        self.to_be_rolled_back: List[Req] = []
        #: dot -> (response, trace at computation); _NO_RESPONSE if not yet.
        self._awaiting: Dict[Dot, Any] = {}
        self._committed_dots: Set[Dot] = set()
        self._tentative_dots: Set[Dot] = set()

        # Broadcast endpoints are attached by the cluster (they need our
        # delivery callbacks, which exist only once we do).
        self.rb: Optional[ReliableBroadcast] = None
        self.tob: Optional[TotalOrderBroadcast] = None

        # Engine bookkeeping.
        self._step_scheduled = False
        self._step_timer = None
        self._retransmit_armed = False
        self._retransmit_timer = None
        self._stopped = False
        self._batched = config.reorder_engine == "batched"
        #: Simulated time at which the currently armed batch drains.
        self._batch_deadline: Optional[float] = None
        #: Backlog items already charged into the armed deadline.
        self._batch_charged = 0

        # Metrics.
        self.execution_count = 0
        self.rollback_count = 0
        self.crash_time: Optional[float] = None
        self.crash_times: List[float] = []
        self.downtime = 0.0

        # Durability bookkeeping. A non-empty pre-existing store means this
        # replica is being reconstructed over an earlier incarnation's disk
        # (e.g. a new cluster on the same JSON-lines directory): reload it,
        # exactly like an in-simulation recovery, so no acknowledged state
        # — nor the event counter guarding against dot reuse — is lost.
        self._wal_dots: Set[Dot] = set()
        self._persisted_checkpoint = 0
        self.restored_from_store = False
        if store is not None and len(store.log("replica.wal")):
            self.restored_from_store = True
            self._rebuild_from_store()

        node.register_crash_hooks(
            on_crash=self._on_node_crash, on_recover=self._on_node_recover
        )

    # ------------------------------------------------------------------
    # Client API (Algorithm 1, lines 9-15)
    # ------------------------------------------------------------------
    def invoke(self, op: Operation, strong: bool = False) -> Req:
        """Submit an operation; returns the request identifying it."""
        assert self.rb is not None and self.tob is not None, "endpoints not attached"
        self.curr_event_no += 1
        req = Req(
            timestamp=self.clock.now(),
            dot=(self.pid, self.curr_event_no),
            strong=strong,
            op=op,
        )
        if self.trace is not None:
            self.trace.record(
                self.node.now, self.pid, "bayou.invoke", dot=req.dot, op=str(op)
            )
        if self.telemetry:
            # The root span of this op's trace: every invocation — client
            # submit, migration barrier/install, realtime RPC — enters here.
            self.telemetry.op_span(
                self.node.now,
                self.pid,
                "op",
                req.dot,
                "root",
                None,
                op=str(op),
                strong=strong,
            )
        self._persist_invoke(req)
        self.rb.rb_cast(req.dot, req)
        self.tob.tob_cast(req.dot, req)
        self.adjust_tentative_order(req)
        self._awaiting[req.dot] = _NO_RESPONSE
        self._arm_retransmit()
        return req

    # ------------------------------------------------------------------
    # Ordering (lines 16-21)
    # ------------------------------------------------------------------
    def adjust_tentative_order(self, req: Req) -> None:
        """Insert ``req`` into the timestamp-sorted tentative list.

        Hot path: most requests arrive in timestamp order and land at the
        very tail of ``committed · tentative``. The executed prefix is then
        untouched, nothing rolls back, and the execution schedule simply
        grows by ``req`` — no re-diff needed. Out-of-order arrivals
        (drifting clocks, healed partitions) re-diff from the insertion
        point on via :meth:`adjust_execution`.
        """
        divergence = self._insert_tentative(req)
        if divergence is None:
            self._schedule_step()
        else:
            self.adjust_execution(divergence)

    def _insert_tentative(self, req: Req) -> Optional[int]:
        """Insert ``req``; ``None`` if the tail fast path applied (no
        re-diff), else the index in ``committed · tentative`` it landed at."""
        self._tentative_dots.add(req.dot)
        if not self.tentative or self.tentative[-1] < req:
            self.tentative.append(req)
            if not (self.executed and self.executed[-1].dot == req.dot):
                # Not already executed (the modified protocol's footnote-8
                # path keeps its immediate tail execution): schedule it.
                self.to_be_executed.append(req)
            return None
        position = bisect_right(self.tentative, req)
        self.tentative.insert(position, req)
        return len(self.committed) + position

    # ------------------------------------------------------------------
    # Deliveries (lines 22-34)
    # ------------------------------------------------------------------
    def on_rb_deliver(self, key: Dot, req: Req) -> None:
        """RB-delivery handler (lines 22-26)."""
        if req.dot[0] == self.pid:
            return  # issued locally; tentative insertion happened at invoke
        if req.dot in self._committed_dots or req.dot in self._tentative_dots:
            return  # already known (e.g. TOB delivered it first)
        if self.trace is not None:
            self.trace.record(
                self.node.now, self.pid, "bayou.rb_deliver", dot=req.dot
            )
        self._persist_request(req)
        self.adjust_tentative_order(req)

    def on_rb_deliver_batch(self, items: Iterable[Tuple[Dot, Req]]) -> None:
        """Deliver a batch of RB messages, recomputing the schedule once.

        Used by the anti-entropy substrate, whose sync sessions ship whole
        log suffixes in one message: inserting every request and *then*
        diffing the order once turns the O(k·n) per-request delivery into
        O(n). The resulting tentative order, execution schedule and rollback
        queue are identical to delivering the requests one at a time.
        """
        fresh: List[Req] = []
        for _, req in items:
            if req.dot[0] == self.pid:
                continue
            if req.dot in self._committed_dots or req.dot in self._tentative_dots:
                continue
            if self.trace is not None:
                self.trace.record(
                    self.node.now, self.pid, "bayou.rb_deliver", dot=req.dot
                )
            fresh.append(req)
        if not fresh:
            return
        for req in fresh:
            self._persist_request(req)
        # The first index at which the order changed is the smallest
        # insertion point: a later insert in front of an earlier one only
        # shifts it right. Stale fast-path appends to to_be_executed are
        # harmless: the adjust below replaces the schedule wholesale.
        divergence: Optional[int] = None
        for req in fresh:
            position = self._insert_tentative(req)
            if position is not None and (divergence is None or position < divergence):
                divergence = position
        if divergence is None:
            self._schedule_step()
        else:
            self.adjust_execution(divergence)

    def on_tob_deliver(self, key: Dot, req: Req) -> None:
        """TOB-delivery handler (lines 27-34).

        Hot paths: committing the current *tentative head* moves it across
        the ``committed · tentative`` boundary without changing the
        concatenated sequence, so the execution schedule is already correct
        and the re-diff is skipped — a healed-partition commit flood
        performs no re-diffs at all. (The ``pop(0)`` below still shifts the
        tentative list — a C-level memmove, ~40 ms across a 10⁴-commit
        flood.) A commit of an unknown request while no tentative requests
        exist appends to the order tail and extends the schedule in place.
        Any other commit puts ``req`` at index ``len(committed) - 1`` of the
        order, so the re-diff starts there.
        """
        if req.dot in self._committed_dots:
            return  # defensive: engines deliver each key once
        self.committed.append(req)
        self._committed_dots.add(req.dot)
        self._persist_request(req)
        if self.store is not None:
            self.store.log("replica.commits").append(req.dot)
        if self.trace is not None:
            self.trace.record(
                self.node.now, self.pid, "bayou.tob_deliver", dot=req.dot
            )
        if req.dot in self._tentative_dots:
            self._tentative_dots.discard(req.dot)
            if self.tentative[0].dot == req.dot:
                self.tentative.pop(0)  # head commit: order sequence unchanged
            else:
                del self.tentative[bisect_left(self.tentative, req)]
                self.adjust_execution(len(self.committed) - 1)
        elif not self.tentative:
            # Unknown request, empty tentative list: the order grew at its
            # tail; executed stays a prefix, the schedule just gains req.
            self.to_be_executed.append(req)
            self._schedule_step()
        else:
            self.adjust_execution(len(self.committed) - 1)
        if self.telemetry:
            self._m_commits.inc()
            if req.dot[0] == self.pid:
                # One commit span per op, recorded at its origin replica
                # (every replica delivers; fanning out per-replica spans
                # would grow each op's tree with the cluster size).
                self.telemetry.op_span(
                    self.node.now,
                    self.pid,
                    "commit",
                    req.dot,
                    "commit",
                    "tob.deliver",
                )
        # ``executed`` is a prefix of the order and ``req`` now sits at index
        # ``len(committed) - 1``, so it was executed iff the prefix reaches it.
        if req.dot in self._awaiting and len(self.executed) >= len(self.committed):
            stored = self._awaiting.pop(req.dot)
            assert stored is not _NO_RESPONSE, "executed request lacks a response"
            response, perceived = stored
            self._respond(req, response, perceived, stable=True)
        if self.commit_listener is not None:
            self.commit_listener(req)
        self._maybe_persist_checkpoint()

    def on_tob_deliver_batch(self, items: Iterable[Tuple[Dot, Req]]) -> None:
        """Batched TOB delivery: strictly per-entry, in list order.

        The batched Paxos engine hands a contiguous decided run over in one
        call; commit semantics (head-commit fast path, listeners, stability
        responses) must be *identical* to one delivery per entry — that is
        the bit-identical-history contract — so this simply loops. The
        entries already share one simulation event, which is where the
        batching win (one event, one timestamp, no per-op messages) lives.
        """
        for key, req in items:
            self.on_tob_deliver(key, req)

    # ------------------------------------------------------------------
    # Execution scheduling (lines 35-40)
    # ------------------------------------------------------------------
    def adjust_execution(self, divergence: int) -> None:
        """Diff ``executed`` against ``committed · tentative`` (lines 35-40).

        ``divergence`` is the first index at which the order can differ
        from the one last adjusted to; ``executed`` is a prefix of that
        order, so ``executed[:divergence]`` still matches and only the
        suffix from there is compared. The out-of-order tail of
        ``executed`` is cut off in place and queued for rollback (in
        reverse), and the schedule becomes the order's suffix from the
        first mismatch. Cost: O(divergent suffix), not O(history).
        """
        executed = self.executed
        committed = self.committed
        tentative = self.tentative
        split = len(committed)
        index = min(divergence, len(executed))
        stop = min(len(executed), split)
        while index < stop and executed[index].dot == committed[index].dot:
            index += 1
        if index >= split:
            stop = min(len(executed), split + len(tentative))
            while index < stop and executed[index].dot == tentative[index - split].dot:
                index += 1
        out_of_order = executed[index:]
        del executed[index:]
        del self._executed_dots[index:]
        if index < split:
            self.to_be_executed = committed[index:] + tentative
        else:
            self.to_be_executed = tentative[index - split:]
        out_of_order.reverse()
        self.to_be_rolled_back += out_of_order
        self._schedule_step()

    # ------------------------------------------------------------------
    # Internal events (lines 41-55), as simulation steps
    # ------------------------------------------------------------------
    def _schedule_step(self) -> None:
        if self._stopped:
            return
        if not self.to_be_rolled_back and not self.to_be_executed:
            self._maybe_persist_checkpoint()
            return
        if self._batched:
            self._arm_batch()
            return
        if self._step_scheduled:
            return
        self._step_scheduled = True
        self._step_timer = self.node.set_timer(
            self.config.exec_delay_for(self.pid),
            self._step,
            label=f"bayou.step r{self.pid}",
        )

    def _step(self) -> None:
        self._step_scheduled = False
        self._step_timer = None
        if self.to_be_rolled_back:
            head = self.to_be_rolled_back.pop(0)
            self.state.rollback(head)
            self.rollback_count += 1
            if self.telemetry:
                self._m_rollbacks.inc()
            if self.trace is not None:
                self.trace.record(
                    self.node.now, self.pid, "bayou.rollback", dot=head.dot
                )
        elif self.to_be_executed:
            head = self.to_be_executed.pop(0)
            self._execute_one(head)
        self._schedule_step()

    # -- batched engine -------------------------------------------------
    def _arm_batch(self) -> None:
        """Extend the batch deadline to cover the current backlog.

        Each backlog item is charged ``exec_delay`` exactly once: a fresh
        batch drains at ``now + backlog × exec_delay`` — the same simulated
        completion time the stepwise engine reaches with one event per
        request — and new items arriving while a batch is armed extend the
        *existing* deadline by their own cost rather than re-charging the
        in-flight work from ``now``. Only the deadline moves; the armed
        timer re-arms itself for the remainder when it fires early, so a
        flood of same-time deliveries costs O(1) extra events.
        """
        backlog = len(self.to_be_rolled_back) + len(self.to_be_executed)
        fresh = backlog - self._batch_charged
        if fresh > 0:
            base = (
                self.node.now
                if self._batch_deadline is None
                else max(self._batch_deadline, self.node.now)
            )
            self._batch_deadline = base + fresh * self.config.exec_delay_for(self.pid)
            self._batch_charged = backlog
        if self._batch_deadline is not None and not self._step_scheduled:
            self._step_scheduled = True
            self._step_timer = self.node.set_timer(
                self._batch_deadline - self.node.now,
                self._batch_step,
                label=f"bayou.batch r{self.pid}",
            )

    def _batch_step(self) -> None:
        self._step_scheduled = False
        self._step_timer = None
        if self._stopped or self._batch_deadline is None:
            return
        remaining = self._batch_deadline - self.node.now
        if remaining > 1e-9:
            # The deadline moved while we were queued: re-arm for the rest.
            self._step_scheduled = True
            self._step_timer = self.node.set_timer(
                remaining, self._batch_step, label=f"bayou.batch r{self.pid}"
            )
            return
        self._batch_deadline = None
        self._batch_charged = 0
        if self.to_be_rolled_back:
            count = len(self.to_be_rolled_back)
            keep = len(self.executed)
            self.state.revert_to(keep)
            self.rollback_count += count
            self.to_be_rolled_back = []
            if self.telemetry:
                self._m_rollbacks.inc(count)
                self._record_maintenance(
                    "reorder.rollback_batch", count=count, keep=keep
                )
            if self.trace is not None:
                self.trace.record(
                    self.node.now,
                    self.pid,
                    "bayou.rollback_batch",
                    count=count,
                    keep=keep,
                )
        queue = self.to_be_executed
        #: Drain only what this deadline paid for — a reentrant responder
        #: may tail-append new requests mid-drain; those wait for their own
        #: exec_delay via the _schedule_step() at the end.
        limit = len(queue)
        index = 0
        replayed = 0
        while index < limit:
            head = queue[index]
            index += 1
            if head.dot not in self._awaiting:
                # Slim replay: no response to compute, no responder to call.
                # Per-request trace records are replaced by one aggregate
                # record below — the point of the batched engine is that a
                # 10⁴-request replay is one drain, not 10⁴ bookkept events.
                self.state.execute(head)
                self.execution_count += 1
                self._append_executed(head)
                replayed += 1
                continue
            self._execute_one(head)
            if self.to_be_executed is not queue:
                # A reentrant responder triggered a full adjust_execution:
                # the schedule was recomputed wholesale (consumed requests
                # are in ``executed`` and excluded) and a new batch armed.
                return
            if self.to_be_rolled_back:
                # A reentrant adjust queued rollbacks mid-drain: stop here
                # and let the freshly armed batch drain the remainder.
                del queue[:index]
                self._schedule_step()
                return
        del queue[:index]
        if replayed:
            if self.telemetry:
                self._m_execs.inc(replayed)
                self._record_maintenance("reorder.execute_batch", count=replayed)
            if self.trace is not None:
                self.trace.record(
                    self.node.now, self.pid, "bayou.execute_batch", count=replayed
                )
        self._schedule_step()

    def _execute_one(self, head: Req) -> None:
        """Lines 46-55: execute one request and maybe respond."""
        awaiting = head.dot in self._awaiting
        # The perceived trace is only consumed when a response is computed;
        # materialising it for re-executions would cost O(trace) per replayed
        # request — O(n²) across a long divergent suffix.
        perceived = self._capture_perceived() if awaiting else ()
        response = self.state.execute(head)
        self.execution_count += 1
        if self.telemetry:
            self._m_execs.inc()
            if awaiting:
                # First tentative execution of a locally invoked op — the
                # moment its speculative response is computed. Re-executions
                # during replay are volume (counters), not op history.
                self.telemetry.op_span(
                    self.node.now,
                    self.pid,
                    "exec.tentative",
                    head.dot,
                    "exec.tentative",
                    "root",
                )
        if self.trace is not None:
            self.trace.record(
                self.node.now, self.pid, "bayou.execute", dot=head.dot
            )
        if awaiting:
            if not head.strong or head.dot in self._committed_dots:
                del self._awaiting[head.dot]
                self._respond(
                    head,
                    response,
                    perceived,
                    stable=head.dot in self._committed_dots,
                )
            else:
                self._awaiting[head.dot] = (response, perceived)
        self._append_executed(head)

    def _record_maintenance(self, name: str, **attrs: Any) -> None:
        """One aggregated span per batch drain, on this replica's
        maintenance trace (reorder storms are replica history, not any
        single op's story). Span ids are a deterministic per-replica
        counter, so seeded runs yield identical traces."""
        self._maint_seq += 1
        self.telemetry.tracer.record(
            self.node.now,
            self.pid,
            name,
            self._maint_trace,
            f"b{self._maint_seq}",
            None,
            **attrs,
        )

    def _append_executed(self, req: Req) -> None:
        self.executed.append(req)
        self._executed_dots.append(req.dot)

    def _respond(
        self, req: Req, response: Any, perceived: Tuple[Dot, ...], stable: bool
    ) -> None:
        if self.trace is not None:
            self.trace.record(
                self.node.now,
                self.pid,
                "bayou.respond",
                dot=req.dot,
                response=response,
                stable=stable,
            )
        if self.responder is not None:
            self.responder(req, response, perceived, stable)

    # ------------------------------------------------------------------
    # Introspection and liveness helpers
    # ------------------------------------------------------------------
    def current_trace_dots(self) -> Tuple[Dot, ...]:
        """The current trace α = executed · reverse(toBeRolledBack), as dots.

        This is ``exec(e)`` from the proof of Theorem 2 when captured at the
        instant a response is computed.
        """
        if not self.to_be_rolled_back:
            return tuple(self._executed_dots)
        return tuple(self._executed_dots) + tuple(
            r.dot for r in reversed(self.to_be_rolled_back)
        )

    def _capture_perceived(self) -> Optional[Tuple[Dot, ...]]:
        """The perceived trace for a response — ``None`` when capture is off.

        ``BayouConfig.record_perceived_traces=False`` trades the formal
        framework's per-response ``exec(e)`` bookkeeping (O(trace) time and
        memory per response, O(n²) per run) for scale; histories built from
        such runs fall back to the final arbitration order in perceived-
        order checks.
        """
        if not self.config.record_perceived_traces:
            return None
        return self.current_trace_dots()

    def current_order(self) -> List[Req]:
        """The replica's current ``committed · tentative`` order."""
        return self.committed + self.tentative

    @property
    def backlog(self) -> int:
        """Requests scheduled but not yet (re-)executed — Section 2.3's lag."""
        return len(self.to_be_executed) + len(self.to_be_rolled_back)

    def stop(self) -> None:
        """Stop scheduling internal steps and retransmissions (shutdown)."""
        self._stopped = True

    def _arm_retransmit(self) -> None:
        """Periodically re-TOB-cast tentative requests (TOB requirement 4).

        Only armed when ``config.retransmit_interval`` is set; the network
        already buffers messages across partitions, so retransmission is
        needed only in lossy/filtered scenarios.
        """
        interval = self.config.retransmit_interval
        if interval is None or self._retransmit_armed or self._stopped:
            return
        self._retransmit_armed = True

        def tick() -> None:
            self._retransmit_armed = False
            self._retransmit_timer = None
            if self._stopped or not self.tentative:
                return
            assert self.tob is not None
            for req in self.tentative:
                self.tob.tob_cast(req.dot, req)
            self._arm_retransmit()

        self._retransmit_timer = self.node.set_timer(
            interval, tick, label=f"bayou.retransmit r{self.pid}"
        )

    # ------------------------------------------------------------------
    # Durability and crash recovery
    # ------------------------------------------------------------------
    def _persist_invoke(self, req: Req) -> None:
        """Write-ahead the freshly minted local request and its event number.

        Persisting ``curr_event_no`` is what stops a recovered replica from
        reusing dots: a dot collision after recovery would silently merge
        two different requests at every peer.
        """
        if self.store is None:
            return
        self.store.put("replica.curr_event_no", self.curr_event_no)
        self._persist_request(req)

    def _persist_request(self, req: Req) -> None:
        """Append ``req`` to the durable write-ahead log (once per dot)."""
        if self.store is None or req.dot in self._wal_dots:
            return
        self._wal_dots.add(req.dot)
        self.store.log("replica.wal").append(req)

    def _maybe_persist_checkpoint(self) -> None:
        """Persist the freshest committed-prefix state checkpoint.

        Only prefixes of the *committed* order are durable checkpoints: the
        committed order is final, so the snapshot can never be invalidated
        by a rollback, and recovery can restore it without undo
        information. The in-memory checkpoints PR 2 introduced are keyed by
        live-trace position; a position at or below
        ``min(len(executed), len(committed))`` is exactly such a prefix.
        """
        interval = self.config.checkpoint_interval
        if self.store is None or interval is None:
            return
        stable = min(len(self.executed), len(self.committed))
        if stable - self._persisted_checkpoint < interval:
            return
        checkpoint = self.state._nearest_checkpoint(stable)
        if checkpoint is None or checkpoint[0] <= self._persisted_checkpoint:
            return
        position, db = checkpoint
        self._persisted_checkpoint = position
        self.store.put(
            "replica.checkpoint",
            {"position": position, "db": to_jsonable(dict(db))},
        )

    def _on_node_crash(self, mode: str) -> None:
        """The host node crashed; volatile state is now garbage."""
        self.crash_time = self.node.now
        self.crash_times.append(self.node.now)
        if self.trace is not None:
            self.trace.record(
                self.node.now, self.pid, "bayou.crash", mode=mode
            )

    def _on_node_recover(self) -> None:
        """Rebuild from stable storage (or resume with amnesia without it).

        Recovery = reload the nearest committed-prefix checkpoint, rebuild
        the ``committed · tentative`` order from the write-ahead and commit
        logs, and replay the suffix through the normal execution engine (so
        replay costs ``exec_delay`` per request, like any backlog). All
        volatile state — in-flight responses, perceived traces, schedule
        caches, timers — is discarded.
        """
        if self.crash_time is not None:
            self.downtime += self.node.now - self.crash_time
            self.crash_time = None
        if self.trace is not None:
            self.trace.record(self.node.now, self.pid, "bayou.recover")
        # Engine timers and flags are volatile with or without stable
        # storage: a step/retransmit timer suppressed during the downtime
        # (resurrect=False) would otherwise leave its armed flag stuck True
        # with no timer behind it, stalling the engine forever.
        for timer in (self._step_timer, self._retransmit_timer):
            if timer is not None:
                timer.cancel()
        self._step_timer = None
        self._retransmit_timer = None
        self._step_scheduled = False
        self._retransmit_armed = False
        self._batch_deadline = None
        self._batch_charged = 0
        if self.store is None:
            # No stable storage: the seed's amnesia-free flag flip. The
            # in-memory state survives (including in-flight _awaiting
            # responses), which models a transient pause rather than a
            # real crash; experiments wanting honest crash-recovery
            # semantics configure a durability backend.
            self._schedule_step()
            self._arm_retransmit()
            return

        # Volatile client state is gone: responses in flight at the crash
        # are lost (their history events stay pending), exactly like a
        # client whose server rebooted mid-request.
        self._awaiting = {}
        self._rebuild_from_store()

    def _rebuild_from_store(self) -> None:
        """Reload the durable surface and schedule the replay.

        Shared by in-simulation recovery and by construction over a
        pre-existing store (a cluster restarted over the same JSON-lines
        directory — an operating-system-level crash–recovery).
        """
        requests: Dict[Dot, Req] = {
            record.dot: record for record in self.store.log("replica.wal").records()
        }
        commit_order: List[Dot] = list(self.store.log("replica.commits").records())
        self.curr_event_no = self.store.get("replica.curr_event_no", 0)
        self._wal_dots = set(requests)

        self.committed = [requests[dot] for dot in commit_order]
        self._committed_dots = set(commit_order)
        tentative = sorted(
            (
                req
                for dot, req in requests.items()
                if dot not in self._committed_dots and self._joins_tentative(req)
            ),
        )
        self.tentative = tentative
        self._tentative_dots = {req.dot for req in tentative}
        #: Known-but-uncommitted requests outside the tentative list (the
        #: modified protocol's strong requests); reannounce() re-casts them.
        self._recovered_nontentative = [
            req
            for dot, req in sorted(requests.items())
            if dot not in self._committed_dots and not self._joins_tentative(req)
        ]

        # Restore the nearest committed-prefix checkpoint, then schedule a
        # replay of everything after it.
        order = self.committed + self.tentative
        self.state = StateObject(
            self.datatype, checkpoint_interval=self.config.checkpoint_interval
        )
        prefix_length = 0
        persisted = self.store.get("replica.checkpoint")
        if persisted is not None and persisted["position"] <= len(self.committed):
            prefix_length = persisted["position"]
            self.state.restore(
                order[:prefix_length], from_jsonable(persisted["db"])
            )
        self._persisted_checkpoint = prefix_length
        self.executed = list(order[:prefix_length])
        self._executed_dots = [req.dot for req in self.executed]
        self.to_be_rolled_back = []
        self.to_be_executed = list(order[prefix_length:])
        if self.trace is not None:
            self.trace.record(
                self.node.now,
                self.pid,
                "bayou.replay",
                checkpoint=prefix_length,
                backlog=len(self.to_be_executed),
            )
        self._schedule_step()

    def _joins_tentative(self, req: Req) -> bool:
        """Whether an uncommitted logged request belongs on the tentative
        list when rebuilding after recovery (Algorithm 2 keeps strong
        requests off it; Algorithm 1 speculates on everything)."""
        return True

    def reannounce(self) -> None:
        """Re-advertise uncommitted requests after a recovery.

        TOB submissions that were in flight when the replica crashed may
        never have reached the orderer; re-casting is safe (every engine
        deduplicates by dot) and required for liveness. RB/anti-entropy
        dissemination needs no re-cast: the durable dissemination logs
        reloaded by the endpoints cover it, and their own recovery syncs
        exchange whatever either side is missing.
        """
        if self.tob is None:
            return
        for req in self.tentative:
            self.tob.tob_cast(req.dot, req)
        for req in getattr(self, "_recovered_nontentative", ()):
            self.tob.tob_cast(req.dot, req)
        self._arm_retransmit()
