"""The real-socket backend: an asyncio event loop over TCP.

One :class:`AsyncioRuntime` lives in one operating-system process and hosts
(usually) one protocol process — a replica's :class:`RoutingNode` with its
full component stack. Peers are other OS processes reached over TCP;
messages travel as length-prefixed JSON frames (:mod:`repro.runtime.wire`),
so everything the durability codec registry can persist can also cross the
wire.

Coroutine structure (the 500lines crawler idiom — a small set of
long-lived tasks around queues, no thread anywhere):

- one **server task** accepts inbound connections; each connection gets a
  reader coroutine that deframes the byte stream and dispatches frames;
- one **link task per peer** owns the outbound connection: it dials (with
  retry/backoff — peers boot in arbitrary order), then drains that peer's
  outbound queue, writing frames in order. Per-link FIFO therefore holds,
  exactly like the simulated network's per-link FIFO floor;
- timers are plain ``loop.call_later`` handles behind the
  :class:`RuntimeTimer` contract.

What this backend does **not** provide: determinism. Delivery order across
links, timer interleavings and clock readings are whatever the OS gives
us. Protocol correctness must come from the protocols (that is the point);
reproducible experiments stay on :class:`~repro.runtime.sim.SimRuntime`.

Frames on the wire are dicts:

- ``{"kind": "msg", "sender": pid, "payload": ...}`` — protocol traffic,
  delivered to the registered process as ``deliver(sender, payload)``;
- ``{"kind": "rpc", "id": n, "verb": ..., "args": {...}}`` — a client
  request for the hosting harness (health pings, invokes, status probes);
  answered on the same connection with ``{"kind": "reply", "id": n, ...}``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.runtime.base import Runtime, RuntimeTimer
from repro.runtime.wire import FrameDecoder, WireError, encode_frame

#: An RPC handler: ``async def handle(verb, args) -> jsonable reply value``.
RpcHandler = Callable[[str, Dict[str, Any]], Awaitable[Any]]

#: Initial reconnect backoff; doubles up to the cap below.
_DIAL_BACKOFF = 0.05
_DIAL_BACKOFF_MAX = 1.0


class AsyncioTimer(RuntimeTimer):
    """``loop.call_later`` behind the runtime timer contract."""

    __slots__ = ("_handle", "_cancelled", "label")

    def __init__(self, label: str) -> None:
        #: None until the loop runs the timer's ``call_later``.
        self._handle: Optional[asyncio.TimerHandle] = None
        self._cancelled = False
        self.label = label

    def cancel(self) -> None:
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class _PeerLink:
    """Outbound queue + dialing task for one remote peer."""

    def __init__(self, pid: int, host: str, port: int) -> None:
        self.pid = pid
        self.host = host
        self.port = port
        self.queue: List[bytes] = []
        self.wakeup = asyncio.Event()
        self.task: Optional[asyncio.Task] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.sent_frames = 0


class AsyncioRuntime(Runtime):
    """A runtime whose transport is TCP between OS processes.

    Parameters
    ----------
    pid:
        The pid this OS process hosts.
    peers:
        ``pid -> (host, port)`` for *every* process in the deployment,
        including our own (that entry is where our server binds).
    """

    def __init__(
        self,
        pid: int,
        peers: Dict[int, Tuple[str, int]],
        *,
        telemetry: Optional[Any] = None,
    ) -> None:
        if pid not in peers:
            raise ValueError(f"own pid {pid} missing from peer map {sorted(peers)}")
        self.pid = pid
        self.peers = dict(peers)
        self._processes: Dict[int, Any] = {}
        self._links: Dict[int, _PeerLink] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._epoch: Optional[float] = None
        self._stopped = False
        self._conn_tasks: List[asyncio.Task] = []
        #: Timers set before the loop ran (a server builds its stack
        #: first): ``start()`` arms them, counted from the epoch.
        self._deferred: List[Callable[[], None]] = []
        #: Harness hook answering ``rpc`` frames; ``None`` refuses them.
        self.rpc_handler: Optional[RpcHandler] = None
        # Transport counters (the sim network keeps the same ones).
        self.sent_count = 0
        self.delivered_count = 0
        #: An optional :class:`~repro.obs.Telemetry` plane. When armed,
        #: outbound frames carry the current trace context (old frames
        #: without the field decode exactly as before) and the transport
        #: exports frame/redial/queue-depth instruments.
        self.telemetry = telemetry
        if telemetry:
            self._m_sent = telemetry.counter(
                "repro_net_frames_sent", pid=pid
            )
            self._m_received = telemetry.counter(
                "repro_net_frames_received", pid=pid
            )
            self._m_redials = telemetry.counter("repro_net_redials", pid=pid)
            self._g_queue = telemetry.gauge("repro_net_queue_depth", pid=pid)

    # ------------------------------------------------------------------
    # Runtime surface
    # ------------------------------------------------------------------
    def _loop(self) -> asyncio.AbstractEventLoop:
        return asyncio.get_running_loop()

    def now(self) -> float:
        """Seconds since the epoch; 0 before the loop runs."""
        if self._epoch is None:
            try:
                self._epoch = self._loop().time()
            except RuntimeError:  # no running loop: time has not started
                pass
            return 0.0
        return self._loop().time() - self._epoch

    def schedule(
        self, delay: float, callback: Callable[[], None], *, label: str = ""
    ) -> AsyncioTimer:
        timer = AsyncioTimer(label)

        def guarded() -> None:
            if not timer.cancelled:
                callback()

        def arm() -> None:
            timer._handle = self._loop().call_later(max(0.0, delay), guarded)

        try:
            arm()
        except RuntimeError:  # no running loop yet: start() arms it
            self._deferred.append(arm)
        return timer

    def register(self, process: Any) -> None:
        self._processes[process.pid] = process

    @property
    def n_processes(self) -> int:
        return len(self.peers)

    def send(self, sender: int, receiver: int, payload: Any) -> None:
        self.sent_count += 1
        context = self.telemetry.current if self.telemetry else None
        if receiver == self.pid:
            # Loopback stays on the loop (never reentrant): protocol code
            # that sends to itself mid-handler sees the same "later" the
            # simulated network gives it. The trace context is captured
            # now and restored at delivery, like a remote frame's would be.
            self._loop().call_soon(
                self._deliver_traced, sender, payload, context
            )
            return
        if receiver not in self.peers:
            raise WireError(f"unknown receiver pid {receiver}")
        message: Dict[str, Any] = {
            "kind": "msg", "sender": sender, "payload": payload,
        }
        if context is not None:
            message["trace"] = context
        frame = encode_frame(message)
        link = self._link(receiver)
        link.queue.append(frame)
        link.wakeup.set()
        if self.telemetry:
            self._m_sent.inc()
            self._g_queue.set(
                sum(len(peer.queue) for peer in self._links.values())
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind our server socket; links dial lazily on first send."""
        host, port = self.peers[self.pid]
        self.now()  # pin the epoch to runtime start
        self._server = await asyncio.start_server(
            self._on_connection, host=host, port=port
        )
        deferred, self._deferred = self._deferred, []
        for arm in deferred:
            arm()

    @property
    def bound_port(self) -> int:
        """The actually bound server port (useful with port 0)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the server, all links and their tasks."""
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for link in self._links.values():
            link.wakeup.set()
            if link.task is not None:
                link.task.cancel()
            if link.writer is not None:
                link.writer.close()
        for task in self._conn_tasks:
            task.cancel()
        await asyncio.gather(
            *[l.task for l in self._links.values() if l.task is not None],
            *self._conn_tasks,
            return_exceptions=True,
        )

    # ------------------------------------------------------------------
    # Outbound links
    # ------------------------------------------------------------------
    def _link(self, receiver: int) -> _PeerLink:
        link = self._links.get(receiver)
        if link is None:
            host, port = self.peers[receiver]
            link = _PeerLink(receiver, host, port)
            self._links[receiver] = link
            link.task = self._loop().create_task(self._run_link(link))
        return link

    async def _run_link(self, link: _PeerLink) -> None:
        backoff = _DIAL_BACKOFF
        while not self._stopped:
            try:
                _, writer = await asyncio.open_connection(link.host, link.port)
            except OSError:
                if self.telemetry:
                    self._m_redials.inc()
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, _DIAL_BACKOFF_MAX)
                continue
            backoff = _DIAL_BACKOFF
            link.writer = writer
            try:
                while not self._stopped:
                    while link.queue:
                        frame = link.queue[0]
                        writer.write(frame)
                        await writer.drain()
                        # Popped only after a successful drain: a write
                        # error re-sends the frame on the next connection
                        # instead of silently dropping it.
                        link.queue.pop(0)
                        link.sent_frames += 1
                        if self.telemetry:
                            self._g_queue.set(
                                sum(
                                    len(peer.queue)
                                    for peer in self._links.values()
                                )
                            )
                    link.wakeup.clear()
                    await link.wakeup.wait()
            except (ConnectionError, OSError):
                if self.telemetry:
                    self._m_redials.inc()
                continue  # redial; unsent frames are still queued
            finally:
                link.writer = None
                writer.close()

    # ------------------------------------------------------------------
    # Inbound connections
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.append(task)
        decoder = FrameDecoder()
        try:
            while not self._stopped:
                data = await reader.read(64 * 1024)
                if not data:
                    return
                for frame in decoder.feed(data):
                    await self._dispatch(frame, writer)
        except (ConnectionError, OSError, asyncio.CancelledError):
            return
        finally:
            writer.close()
            if task is not None and task in self._conn_tasks:
                self._conn_tasks.remove(task)

    async def _dispatch(
        self, frame: Any, writer: asyncio.StreamWriter
    ) -> None:
        if not isinstance(frame, dict) or "kind" not in frame:
            raise WireError(f"malformed frame {frame!r}")
        kind = frame["kind"]
        if self.telemetry:
            self._m_received.inc()
        if kind == "msg":
            self._deliver_traced(
                frame["sender"], frame["payload"], frame.get("trace")
            )
        elif kind == "rpc":
            reply: Dict[str, Any] = {"kind": "reply", "id": frame.get("id")}
            if self.rpc_handler is None:
                reply["error"] = "no RPC handler registered"
            else:
                try:
                    reply["value"] = await self.rpc_handler(
                        frame.get("verb", ""), frame.get("args") or {}
                    )
                except Exception as exc:  # surfaced to the caller, not fatal
                    reply["error"] = f"{type(exc).__name__}: {exc}"
            writer.write(encode_frame(reply))
            await writer.drain()
        else:
            raise WireError(f"unknown frame kind {kind!r}")

    def _deliver_traced(self, sender: int, payload: Any, context: Any) -> None:
        """Deliver with the sender's trace context current, if one rode in."""
        if self.telemetry and context is not None:
            with self.telemetry.using(context):
                self._deliver_local(sender, payload)
        else:
            self._deliver_local(sender, payload)

    def _deliver_local(self, sender: int, payload: Any) -> None:
        process = self._processes.get(self.pid)
        if process is None:
            return
        self.delivered_count += 1
        process.deliver(sender, payload)
