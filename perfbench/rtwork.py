"""The realtime workload: three replica processes over localhost TCP.

The replicas run ``repro.runtime.serve`` (asyncio runtime, sequencer TOB)
through :mod:`perfbench.replica`. This process drives one closed-loop KV
session on replica 1 over one connection. Weak ops wait for their
tentative response, strong ops (10%) for stability.

One session, not one per CPU: with two sessions on a 2-CPU machine, four
busy processes share two CPUs, and the tail latency measured the OS
scheduler (p99 of 15 ms against a 1 ms median, spreading 20% between runs).

The Paxos leg is missing: ``serve`` with ``tob_engine="paxos"`` crashes at
start-up, because ``OmegaFailureDetector`` reads ``node.now`` before the
event loop runs (``runtime/serve.py:227`` -> ``runtime/asyncio_net.py:138``).
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.workload import KeySampler, kv_profile
from repro.datatypes.kvstore import KVStore
from repro.runtime.launcher import RealtimeClient, free_ports
from repro.runtime.serve import ClusterSpec
from repro.runtime.wire import WireError

from perfbench import checks, hostspeed, layers, measure

N_REPLICAS = 3
N_KEYS = 256
STRONG_PROBABILITY = 0.1
#: Ops per trial; each trial starts a fresh cluster, so every trial
#: replays the same history length.
OPS_PER_TRIAL = 1500
STARTUP_TIMEOUT_S = 30.0
CONVERGE_TIMEOUT_S = 60.0
#: The session's replica. Not the sequencer (replica 0), so every strong op
#: crosses the network to be ordered.
CLIENT_REPLICA = 1
SIMT_LATENCIES = (
    "weak_p50_simt", "weak_p99_simt", "strong_p50_simt", "strong_p90_simt",
    "strong_p99_simt", "stable_lag_p99_simt",
)

clock = time.perf_counter


@dataclass
class OpRecord:
    dot: Optional[Tuple[int, int]]
    op: Any
    strong: bool
    value: Any
    latency_s: float
    #: Wall time (from the start of the run) at which the op was answered.
    done_at: float
    error: Optional[str] = None


class Cluster:
    """Three ``perfbench.replica`` processes on free localhost ports."""

    def __init__(self, root: str, workdir: str, *, traced: bool) -> None:
        self.root = root
        self.workdir = workdir
        self.traced = traced
        self.spec = ClusterSpec(n_replicas=N_REPLICAS, ports=free_ports(N_REPLICAS))
        self.procs: List[subprocess.Popen] = []
        self.logs: List[Any] = []
        self.clients: List[RealtimeClient] = []

    def __enter__(self) -> "Cluster":
        try:
            self.setup_s = self.start()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def totals_path(self, pid: int) -> str:
        return os.path.join(self.workdir, f"totals-{pid}.json")

    def start(self) -> float:
        """Spawn the replicas; returns seconds until all answer a ping."""
        os.makedirs(self.workdir, exist_ok=True)
        config = os.path.join(self.workdir, "cluster.json")
        self.spec.dump(config)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [self.root, os.path.join(self.root, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        started = clock()
        for pid in range(N_REPLICAS):
            command = [
                sys.executable, "-m", "perfbench.replica",
                "--replica", str(pid), "--config", config,
            ]
            if self.traced:
                command += ["--totals", self.totals_path(pid)]
            log = open(os.path.join(self.workdir, f"replica-{pid}.log"), "wb")
            self.logs.append(log)
            self.procs.append(
                subprocess.Popen(
                    command, cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT
                )
            )
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        for pid in range(N_REPLICAS):
            self.clients.append(self._await_ready(pid, deadline))
        return clock() - started

    def _await_ready(self, pid: int, deadline: float) -> RealtimeClient:
        while time.monotonic() < deadline:
            if self.procs[pid].poll() is not None:
                raise RuntimeError(
                    f"replica {pid} exited with code {self.procs[pid].returncode}; "
                    f"see {self.workdir}/replica-{pid}.log"
                )
            try:
                client = RealtimeClient(self.spec.host, self.spec.ports[pid], timeout=5.0)
            except OSError:
                time.sleep(0.01)
                continue
            try:
                if client.ping().get("ok"):
                    return client
            except (OSError, WireError):
                pass
            client.close()
            time.sleep(0.01)
        raise TimeoutError(f"replica {pid} not ready in {STARTUP_TIMEOUT_S:g}s")

    def statuses(self) -> List[Dict[str, Any]]:
        return [client.status() for client in self.clients]

    def await_commits(self, expected: int) -> List[Dict[str, Any]]:
        """Poll until every replica committed ``expected`` ops and drained."""
        deadline = time.monotonic() + CONVERGE_TIMEOUT_S
        while True:
            statuses = self.statuses()
            if all(
                len(s["committed"]) >= expected and not s["backlog"] and not s["tentative"]
                for s in statuses
            ) or time.monotonic() > deadline:
                return statuses
            time.sleep(0.02)

    def stop(self) -> None:
        """SIGTERM every replica and wait for it (SIGKILL stragglers)."""
        for client in self.clients:
            client.close()
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self.logs:
            log.close()

    def totals(self) -> List[Dict[str, Any]]:
        """What each traced replica wrote when it shut down."""
        totals = []
        for pid in range(N_REPLICAS):
            with open(self.totals_path(pid), encoding="utf-8") as handle:
                totals.append(json.load(handle))
        return totals


def drive(cluster: Cluster, seed: str, ops: int) -> Tuple[List[OpRecord], float]:
    """Run ``ops`` ops, one at a time; returns them and the wall time.

    The first transport error ends the trial; it and every op left unsent
    are records with an ``error``, so all ``ops`` count as attempted.
    """
    profile = kv_profile(
        STRONG_PROBABILITY,
        sampler=KeySampler.uniform([f"k{i}" for i in range(N_KEYS)]),
    )
    rng = random.Random(seed)
    client = cluster.clients[CLIENT_REPLICA]
    records: List[OpRecord] = []
    start = clock()
    while len(records) < ops:
        op, strong = profile.sample(rng)
        sent = clock()
        try:
            reply = client.invoke(op, strong=strong, wait="stable" if strong else "response")
        except (OSError, WireError) as exc:
            done = clock()
            records.append(
                OpRecord(None, op, strong, None, done - sent, done - start, repr(exc))
            )
            unsent = OpRecord(None, None, False, None, 0.0, done - start, "not sent")
            records.extend([unsent] * (ops - len(records)))
            break
        done = clock()
        records.append(OpRecord(
            tuple(reply["dot"]), op, strong, reply.get("value"), done - sent, done - start
        ))
    return records, clock() - start


def check(verdict: checks.Verdict, records: List[OpRecord], statuses) -> None:
    checks.check_answered(
        verdict, ((index, r.error is None, True) for index, r in enumerate(records))
    )
    answered = [r for r in records if r.dot is not None]
    checks.check_group(
        verdict,
        KVStore(),
        "cluster",
        [[tuple(dot) for dot in status["committed"]] for status in statuses],
        [status["state"] for status in statuses],
        {r.dot: r.op for r in answered},
        {r.dot: r.value for r in answered if r.strong},
    )


def _workdir(root: str, tag: str = "") -> str:
    """This run's scratch directory (``tag`` names one cluster's)."""
    return os.path.join(root, ".bench_build", "perfbench", str(os.getpid()), tag)


def _trial(
    root: str, seed: int, index: int, *, traced: bool, ops: int
) -> Dict[str, Any]:
    """Start a fresh cluster, run ``ops`` ops through it, check, stop.

    Trial ``index`` draws its ops from its own input seed.
    """
    tag = f"{'traced' if traced else 'plain'}{index}"
    with Cluster(root, _workdir(root, tag), traced=traced) as cluster:
        records, wall = drive(cluster, f"rt-kv-tcp/{seed}/{index}", ops)
        statuses = cluster.await_commits(sum(1 for r in records if r.dot is not None))
    verdict = checks.Verdict()
    check(verdict, records, statuses)
    return {
        "setup_s": cluster.setup_s,
        "records": records,
        "wall": wall,
        "verdict": verdict,
        "totals": cluster.totals() if traced else [],
    }


def _answered(trial: Dict[str, Any]) -> int:
    return sum(1 for r in trial["records"] if r.error is None)


def timed_run(root: str, seed: int, seconds: float, ops: Optional[int] = None):
    """Repeat fresh-cluster trials of ``ops`` ops for ``seconds``.

    Times are scaled to reference host speed by one factor for the run,
    from the median of round trips timed around every trial (see
    :mod:`perfbench.hostspeed`); the details carry the raw figures too.
    """
    round_trips = [hostspeed.round_trip_seconds()]
    trials: List[Dict[str, Any]] = []
    try:
        window = clock()
        while True:
            trial = _trial(root, seed, len(trials), traced=False, ops=ops or OPS_PER_TRIAL)
            round_trips.append(hostspeed.round_trip_seconds())
            trials.append(trial)
            elapsed = clock() - window
            if elapsed + elapsed / len(trials) > seconds:
                break
    finally:
        shutil.rmtree(_workdir(root), ignore_errors=True)
    verdict = checks.Verdict()
    for trial in trials:
        verdict.merge(trial["verdict"])
    records = [r for trial in trials for r in trial["records"]]
    scale = hostspeed.ROUND_TRIP_REFERENCE_S / measure.median(round_trips)
    # Each percentile is the median of the trials' own: a burst of host
    # noise then moves one trial's tail, not the pooled tail of the run.
    per_trial = [
        measure.latency_metrics(
            [r.latency_s for r in t["records"] if r.error is None and not r.strong],
            [r.latency_s for r in t["records"] if r.error is None and r.strong],
            "ms",
            1000.0 * scale,
        )
        for t in trials
    ]
    values = {
        "setup_s": measure.median([t["setup_s"] for t in trials]) * scale,
        "committed_ops_per_s": measure.median(
            [_answered(t) / t["wall"] for t in trials]
        ) / scale,
        # The largest replica process (every replica has been waited for).
        "peak_rss_mb": measure.peak_rss_mb(resource.RUSAGE_CHILDREN),
        **{name: measure.median([m[name] for m in per_trial]) for name in per_trial[0]},
    }
    detail = {
        "trials": len(trials),
        "ops_per_trial": len(trials[0]["records"]),
        "setup_samples": len(trials),
        "weak_samples": sum(1 for r in records if r.error is None and not r.strong),
        "strong_samples": sum(1 for r in records if r.error is None and r.strong),
        "raw_committed_ops_per_s": measure.median(
            [_answered(t) / t["wall"] for t in trials]
        ),
        "raw_trial_wall_s": [round(t["wall"], 4) for t in trials],
        "raw_setup_s": [round(t["setup_s"], 4) for t in trials],
        "host_scale": scale,
        "round_trip_s": [round(seconds, 4) for seconds in round_trips],
    }
    return values, len(records), verdict, detail


def traced_run(root: str, seed: int, seconds: float, ops: Optional[int] = None):
    """One untraced trial, then the same trial on traced replicas."""
    ops = ops or OPS_PER_TRIAL
    try:
        plain = _trial(root, seed, 0, traced=False, ops=ops)
        traced = _trial(root, seed, 0, traced=True, ops=ops)
    finally:
        shutil.rmtree(_workdir(root), ignore_errors=True)
    verdict = checks.Verdict()
    verdict.merge(plain["verdict"])
    verdict.merge(traced["verdict"])
    totals = traced["totals"]
    done = max(1, _answered(traced))
    self_s = {layer: sum(t["self_s"].get(layer, 0.0) for t in totals) for layer in layers.LAYERS}
    inclusive = lambda name: sum(t["inclusive_s"].get(name, 0.0) for t in totals)
    executions = sum(t["execution_count"] for t in totals)
    stamps = sorted(r.done_at for r in plain["records"] if r.error is None)
    values = {f"{layer}.self_s": self_s[layer] for layer in layers.LAYERS}
    values.update({
        # No simulator, no shards, and no simulated time on sockets.
        "sim.events_per_op": 0.0,
        "shard.route_imbalance": 0.0,
        "broadcast.commit_wait_p50_simt": 0.0,
        **{name: 0.0 for name in SIMT_LATENCIES},
        "net.msgs_per_op": sum(t["sent_count"] for t in totals) / done,
        "broadcast.ops_per_instance": 1.0,  # the sequencer orders one op per message
        "core.adjust_execution_s": inclusive("BayouReplica.adjust_execution"),
        "core.executions_per_op": executions / done,
        "core.rollbacks_per_op": sum(t["rollback_count"] for t in totals) / done,
        "core.useful_exec_ratio": done * N_REPLICAS / executions if executions else 0.0,
        "runtime.wire_s": sum(inclusive(name) for name in layers.WIRE_SPANS),
        "runtime.bytes_per_op": sum(t["bytes_encoded"] for t in totals) / done,
        "runtime.frames_per_op": sum(t["frames_encoded"] for t in totals) / done,
        "runtime.rpc_wait_ms": measure.median(
            [wait for t in totals for wait in t["rpc_waits"]]
        ) * 1000.0,
        "trace.overhead": traced["wall"] / plain["wall"],
        "progress.exponent": measure.loglog_slope(stamps),
    })
    detail = {
        "ops": done,
        "plain_wall_s": round(plain["wall"], 4),
        "traced_wall_s": round(traced["wall"], 4),
        "rpc_wait_samples": sum(len(t["rpc_waits"]) for t in totals),
    }
    return values, len(plain["records"]) + len(traced["records"]), verdict, detail
