"""Host speed: fixed reference work timed beside the workload.

On a shared virtual machine the same Python code runs up to 70% slower for
minutes at a time while neighbours load the host (measured on the 2-vCPU
VM this benchmark was built on: one simulator rep took 0.87 s in one run
and never less than 1.50 s in another). Medians over reps cannot remove a
slowdown that lasts a whole run.

So every timed interval of a simulator workload is paired with a kernel,
run just before and just after it, and reported at reference host speed: multiplied by
``REFERENCE_S`` over the kernel's mean time around the interval. The
kernel is pure Python and shares no code with the program: an event queue
over small objects with dict and list churn, the instruction mix of the
simulator. A change to the program therefore moves the scaled figures
exactly as it moves the raw ones, while a slow host moves both the kernel
and the workload. The raw figures are reported beside the scaled ones.

The realtime workload spreads its work over four processes on two CPUs, and
the kernel, run in one process, followed its trials poorly: scaling by it
made the trial times vary more, not less. Its reference is
:func:`round_trip_seconds` instead: ping-pongs of small messages with a
child echo process over localhost TCP, the path the workload's frames take.
Over 126 trials, medians of 11 trials (one run's worth) of trial time,
set-up time and latency followed the matching medians of this reference
with correlation 0.6-0.9, against 0.4-0.55 for the kernel. Single trials
follow it no better than the kernel, so a realtime run is scaled by one
factor, from the median of all its round-trip timings.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import random
import socket
import subprocess
import sys
import time

#: The kernel's time on the reference host (a quiet phase of that VM).
REFERENCE_S = 0.1
KERNEL_STEPS = 25_000


class _Event:
    __slots__ = ("src", "dst", "payload")

    def __init__(self, src: int, dst: int, payload: tuple) -> None:
        self.src, self.dst, self.payload = src, dst, payload


def kernel_seconds() -> float:
    """Run the reference kernel once; returns its wall time.

    The collector runs first, so garbage the workload left behind (a
    whole deployment, after a rep) is not charged to the kernel.
    """
    gc.collect()
    start = time.perf_counter()
    rng = random.Random(7)
    queue: list = []
    seq = itertools.count()
    logs: list = [[] for _ in range(12)]
    seen: dict = {}
    for i in range(2000):
        event = _Event(i % 12, (i * 7) % 12, (i, "x"))
        heapq.heappush(queue, (rng.random(), next(seq), event))
    for step in range(KERNEL_STEPS):
        now, _, event = heapq.heappop(queue)
        log = logs[event.dst]
        log.append(event)
        key = (event.src, event.dst, step % 977)
        seen[key] = seen.get(key, 0) + 1
        if len(log) > 400:
            del log[:200]
        heapq.heappush(
            queue,
            (now + rng.random(), next(seq),
             _Event(event.dst, (event.dst + 5) % 12, (step, event.payload[1]))),
        )
    return time.perf_counter() - start


class HostSpeed:
    """Scales timed intervals to reference host speed.

    Call :meth:`scale` right after each timed interval: it runs the kernel
    again and returns the factor for the interval between this kernel run
    and the previous one.
    """

    def __init__(self) -> None:
        self._last = kernel_seconds()

    def scale(self) -> float:
        after = kernel_seconds()
        factor = REFERENCE_S / ((self._last + after) / 2)
        self._last = after
        return factor


#: Round trips per :func:`round_trip_seconds`, and their time on the
#: reference host (a quiet phase of the same VM).
ROUND_TRIPS = 3000
ROUND_TRIP_REFERENCE_S = 0.1

_ECHO_SERVER = """
import socket
listener = socket.create_server(("127.0.0.1", 0))
print(listener.getsockname()[1], flush=True)
conn, _ = listener.accept()
conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
while data := conn.recv(256):
    conn.sendall(data)
"""


def round_trip_seconds() -> float:
    """Time ``ROUND_TRIPS`` 100-byte ping-pongs with a child echo process."""
    server = subprocess.Popen(
        [sys.executable, "-c", _ECHO_SERVER], stdout=subprocess.PIPE, text=True
    )
    try:
        port = int(server.stdout.readline())
        with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            message = b"x" * 100
            start = time.perf_counter()
            for _ in range(ROUND_TRIPS):
                conn.sendall(message)
                received = 0
                while received < len(message):
                    chunk = conn.recv(256)
                    if not chunk:
                        raise ConnectionError("the echo process closed its connection")
                    received += len(chunk)
            return time.perf_counter() - start
    finally:
        # Closing the connection ends the echo loop.
        try:
            server.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()
