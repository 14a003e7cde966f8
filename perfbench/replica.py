"""Benchmark-owned entry point for one realtime replica process.

``python -m perfbench.replica --replica N --config SPEC [--totals PATH]``
runs ``repro.runtime.serve.main`` unchanged. With ``--totals`` it first
wraps the layers' entry points (see :mod:`perfbench.layers`) and, once the
server has shut down on SIGTERM, writes the span totals, the wire counters,
the RPC wait samples and the replica's own counters to ``PATH`` as JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Any, Dict, List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.replica")
    parser.add_argument("--totals", metavar="PATH")
    args, serve_argv = parser.parse_known_args(argv)

    from repro.runtime import serve

    if args.totals is None:
        return serve.main(serve_argv)

    from perfbench import layers

    tracer = layers.LayerTracer()
    layers.install(tracer)
    servers: List[Any] = []
    rpc_waits: List[float] = []

    server_init = serve.ReplicaServer.__init__

    @functools.wraps(server_init)
    def capture(self, *a: Any, **kw: Any) -> None:
        server_init(self, *a, **kw)
        servers.append(self)

    rpc_invoke = serve.ReplicaServer._rpc_invoke

    @functools.wraps(rpc_invoke)
    async def timed_invoke(self, rpc_args: Dict[str, Any]) -> Dict[str, Any]:
        start = time.perf_counter()
        try:
            return await rpc_invoke(self, rpc_args)
        finally:
            rpc_waits.append(time.perf_counter() - start)

    # The driver polls ``status`` only once its sessions are done: freeze the
    # totals at the first poll, so the (large) status replies stay out.
    frozen: Dict[str, Any] = {}
    handle_rpc = serve.ReplicaServer._handle_rpc

    @functools.wraps(handle_rpc)
    async def freezing_handle(self, verb: str, rpc_args: Dict[str, Any]) -> Any:
        if verb == "status" and not frozen:
            frozen.update(tracer.totals(), rpc_waits=list(rpc_waits))
        return await handle_rpc(self, verb, rpc_args)

    serve.ReplicaServer.__init__ = capture
    serve.ReplicaServer._rpc_invoke = timed_invoke
    serve.ReplicaServer._handle_rpc = freezing_handle

    code = serve.main(serve_argv)
    (server,) = servers
    totals = frozen or dict(tracer.totals(), rpc_waits=rpc_waits)
    totals.update(
        sent_count=server.runtime.sent_count,
        execution_count=server.replica.execution_count,
        rollback_count=server.replica.rollback_count,
        committed=len(server.replica.committed),
    )
    with open(args.totals, "w", encoding="utf-8") as handle:
        json.dump(totals, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
