"""Layer spans for the traced run.

The benchmark measures the program from outside: :func:`install` replaces
each layer's entry points (methods on the program's classes, and the wire
codec functions) with a wrapper that records a span around the call. It
must run before any stack is built, so that callbacks bound at
construction time (``node.register_component(tag, self._on_message)``)
already see the wrapper.

A layer is a package under ``src/repro/``. A span's *self time* is its
duration minus the time covered by the spans it caused (its children);
summing self time per layer splits the traced wall time between layers
without counting nested calls twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Layers whose self time the traced run reports.
LAYERS = ("sim", "net", "broadcast", "core", "datatypes", "shard", "runtime")

#: (module, class, methods) per layer. Entry points only: the calls by which
#: one layer hands work to another, plus the harness-facing run loops.
ENTRY_POINTS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "sim": [
        ("repro.sim.kernel", "Simulator", ("run", "step", "schedule", "schedule_at")),
        ("repro.sim.trace", "TraceLog", ("record",)),
    ],
    "net": [
        ("repro.net.network", "Network", ("send", "broadcast", "_attempt_delivery")),
        ("repro.net.node", "RoutingNode",
         ("on_message", "send_component", "broadcast_component")),
    ],
    "broadcast": [
        ("repro.broadcast.reliable", "ReliableBroadcast", ("rb_cast", "_on_message")),
        ("repro.broadcast.sequencer", "SequencerTOB", ("tob_cast", "_on_message")),
        ("repro.broadcast.paxos", "PaxosTOB",
         ("tob_cast", "_on_message", "_flush", "_drive", "_startup_kick", "prewarm")),
        ("repro.broadcast.failure_detector", "OmegaFailureDetector",
         ("start", "_tick", "_on_heartbeat")),
    ],
    "core": [
        ("repro.core.replica", "BayouReplica",
         ("invoke", "on_rb_deliver", "on_rb_deliver_batch", "on_tob_deliver",
          "on_tob_deliver_batch", "adjust_execution", "_step", "_batch_step")),
        ("repro.core.state_object", "StateObject", ("execute", "rollback", "revert_to")),
        ("repro.core.state_object", "_UndoTrackingView", ("read", "write")),
        ("repro.core.cluster", "BayouCluster",
         ("submit", "converged", "run_until_stable", "run_until_quiescent",
          "_on_commit")),
        ("repro.core.session", "Session", ("_pump", "_on_done")),
        ("repro.core.session", "OpFuture", ("_resolve", "_mark_stable")),
    ],
    "shard": [
        ("repro.shard.router", "ShardRouter", ("submit", "plan_route", "resolve_owner")),
        ("repro.shard.router", "ShardedSession", ("_pump", "_on_done")),
        ("repro.shard.deployment", "ShardedCluster",
         ("converged", "run_until_stable", "run_until_quiescent")),
    ],
    "runtime": [
        ("repro.runtime.wire", "FrameDecoder", ("feed",)),
        ("repro.runtime.asyncio_net", "AsyncioRuntime", ("send", "_deliver_local")),
    ],
}

#: Wire codec pieces whose inclusive time is ``runtime.wire_s``.
WIRE_SPANS = ("encode_frame", "FrameDecoder.feed")


class LayerTracer:
    """Per-layer self time and per-entry-point inclusive time and counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: One child-time accumulator per open span.
        self._open: List[float] = []
        #: Frames and bytes produced by the wire encoder.
        self.frames_encoded = 0
        self.bytes_encoded = 0
        #: (TOB endpoint id, key) -> runtime time of its first ``tob_cast``.
        self.cast_at: Dict[Tuple[int, Any], float] = {}
        #: ``tob_cast`` to delivery at the origin replica, runtime time.
        self.commit_waits: List[float] = []

    def span(self, layer: str, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """``func`` wrapped in a span named ``name`` of ``layer``."""
        open_spans = self._open
        self_s, inclusive_s, calls, clock = (
            self.self_s, self.inclusive_s, self.calls, self.clock
        )

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            open_spans.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                self_s[layer] += elapsed - children
                inclusive_s[name] += elapsed
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def reset(self) -> None:
        """Forget everything recorded so far (keeps the wrappers)."""
        self.self_s.clear()
        self.inclusive_s.clear()
        self.calls.clear()
        self.frames_encoded = self.bytes_encoded = 0
        self.cast_at.clear()
        del self.commit_waits[:]

    def totals(self) -> Dict[str, Any]:
        """A JSON-able copy of everything recorded."""
        return {
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "calls": dict(self.calls),
            "frames_encoded": self.frames_encoded,
            "bytes_encoded": self.bytes_encoded,
            "commit_waits": list(self.commit_waits),
        }


def _wrap_method(tracer: LayerTracer, owner: type, name: str, layer: str) -> None:
    func = owner.__dict__.get(name)
    if not inspect.isfunction(func):
        raise AttributeError(f"{owner.__qualname__}.{name} is not a plain method")
    setattr(owner, name, tracer.span(layer, f"{owner.__name__}.{name}", func))


def _datatype_classes() -> List[type]:
    from repro.datatypes.base import DataType

    found: List[type] = []
    pending = list(DataType.__subclasses__())
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _observe_commit_waits(tracer: LayerTracer) -> None:
    """Record ``tob_cast`` → origin delivery times (inside the spans)."""
    from repro.broadcast.paxos import PaxosTOB
    from repro.broadcast.sequencer import SequencerTOB
    from repro.core.replica import BayouReplica

    cast_at, waits = tracer.cast_at, tracer.commit_waits
    for engine in (SequencerTOB, PaxosTOB):
        tob_cast = engine.__dict__["tob_cast"]

        def cast(self, key, payload, _tob_cast=tob_cast):
            cast_at.setdefault((id(self), key), self.node.now)
            return _tob_cast(self, key, payload)

        engine.tob_cast = functools.wraps(tob_cast)(cast)

    on_tob_deliver = BayouReplica.__dict__["on_tob_deliver"]

    @functools.wraps(on_tob_deliver)
    def deliver(self, key, req):
        if req.dot[0] == self.pid:
            started = cast_at.pop((id(self.tob), key), None)
            if started is not None:
                waits.append(self.node.now - started)
        return on_tob_deliver(self, key, req)

    BayouReplica.on_tob_deliver = deliver


def install(tracer: LayerTracer) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` (once per process)."""
    import importlib

    import repro.datatypes  # noqa: F401  (registers every DataType subclass)

    _observe_commit_waits(tracer)
    for layer, entries in ENTRY_POINTS.items():
        for module_name, class_name, methods in entries:
            owner = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                _wrap_method(tracer, owner, method, layer)
    for cls in _datatype_classes():
        for method in ("execute", "keys_of"):
            if method in cls.__dict__:
                _wrap_method(tracer, cls, method, "datatypes")
    # ``encode_frame`` is a module function imported by name elsewhere:
    # rebind it in every loaded module that holds the original.
    wire = importlib.import_module("repro.runtime.wire")
    importlib.import_module("repro.runtime.asyncio_net")
    importlib.import_module("repro.runtime.launcher")
    original = wire.encode_frame

    def counted(value: Any) -> bytes:
        frame = original(value)
        tracer.frames_encoded += 1
        tracer.bytes_encoded += len(frame)
        return frame

    traced = tracer.span("runtime", "encode_frame", functools.wraps(original)(counted))
    for module in list(sys.modules.values()):
        if getattr(module, "encode_frame", None) is original:
            module.encode_frame = traced

