"""The simulator workloads: keyed KV traffic through ``repro.Scenario``.

One *rep* builds a fresh deployment from an input seed, runs its
closed-loop sessions until every op is stable, and then checks the
outputs. A timed run repeats reps for the requested seconds, each input
seed twice in a row, and reports medians; the second rep of a seed must
reproduce the first's counters exactly, which is the determinism
self-check.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.broadcast.paxos import Batch, PaxosTOB
from repro.datatypes.kvstore import KVStore
from repro.scenario import Scenario

from perfbench import checks, hostspeed, layers, measure

#: A rep that has not settled by this simulated time has failed.
MAX_SIM_TIME = 20_000.0
#: Set-up-only builds made before the timed reps (set-up time is the
#: median over these and every rep's own build).
SETUP_BUILDS = 5
#: Every simulated delay of the workloads is a multiple of this (the
#: execution delay 0.1; the message delay is 0.2), so latencies lie on it.
TIME_STEP = 0.1
#: Wall milliseconds one simulated time unit stands for in the ``*_ms``
#: latencies: the message delay of 0.2 units reads as 2 ms, a LAN hop. A
#: fixed factor, so those latencies move with protocol timing only and
#: repeat under a seed; simulator speed is ``committed_ops_per_s``.
MS_PER_SIMT = 10.0
#: Input seeds whose ops the ``*_ms`` latencies pool: a fixed set, so they
#: do not depend on how many reps fit in the window. A timed run makes at
#: least this many rep pairs.
LATENCY_SEEDS = 6

clock = time.perf_counter


@dataclass(frozen=True)
class SimWorkload:
    name: str
    sessions: int
    ops: int
    keys: int
    key_skew: str
    shards: Optional[int]
    tob: str

    def scenario(self, seed: int, ops: Optional[int] = None) -> Scenario:
        """The deployment and its workload; library defaults otherwise."""
        ops = ops or self.ops
        scenario = Scenario(KVStore(), name=self.name)
        if self.shards is not None:
            scenario.shards(self.shards)
        scenario.replicas(3).exec_delay(0.1).message_delay(0.2).config(
            record_perceived_traces=False
        ).workload(
            "kv",
            keys=[f"k{i}" for i in range(self.keys)],
            key_skew=self.key_skew,
            ops_per_session=max(1, ops // self.sessions),
            think_time=0.0,
            seed=seed,
            sessions=self.sessions,
            strong_probability=0.1,
        )
        if self.tob == "paxos":
            # The E12 Paxos timers.
            scenario.tob("paxos").config(
                heartbeat_interval=2.0, failure_timeout=7.0, paxos_retry_interval=4.0
            )
        return scenario


WORKLOADS = {
    "kv-shard4-paxos": SimWorkload(
        "kv-shard4-paxos", sessions=16, ops=1600, keys=256, key_skew="uniform",
        shards=4, tob="paxos",
    ),
    "kv-1shard-long": SimWorkload(
        "kv-1shard-long", sessions=8, ops=2000, keys=64, key_skew="zipf",
        shards=None, tob="sequencer",
    ),
}


@dataclass
class Rep:
    """One build-and-run of a workload."""

    setup_s: float
    run_s: float
    attempted: int
    committed: int
    #: Simulated latencies of the weak and strong ops.
    weak_simt: List[float]
    strong_simt: List[float]
    #: Wall time (from the start of the run) of each commit, in order.
    commit_stamps: List[float]
    #: Deterministic counters and simulated-time latencies.
    counters: Dict[str, Any]
    verdict: checks.Verdict = field(default_factory=checks.Verdict)


def sim_quantile(samples: List[float], fraction: float) -> float:
    """Percentile of simulated latencies, which lie on the ``TIME_STEP`` lattice."""
    return measure.lattice_percentile(samples, fraction, TIME_STEP)


def _groups(live) -> List[Any]:
    """The replica groups of a run: its shards, or the one cluster."""
    deployment = getattr(live, "deployment", None)
    return list(deployment.shards) if deployment is not None else [live.cluster]


def _shard_of(future) -> int:
    route = getattr(future, "_route", None)
    return route[0] if route is not None else 0


def build(workload: SimWorkload, seed: int, ops: Optional[int] = None):
    """Build the deployment; returns ``(live run, seconds taken)``."""
    scenario = workload.scenario(seed, ops)
    start = clock()
    live = scenario.build()
    return live, clock() - start


def run_rep(
    workload: SimWorkload,
    seed: int,
    ops: Optional[int] = None,
    *,
    on_start: Optional[Callable[[], None]] = None,
    on_end: Optional[Callable[[], None]] = None,
) -> Rep:
    """Build, run until every op is stable, then count and check.

    ``on_start``/``on_end`` run just around the timed region.
    """
    gc.collect()
    live, setup_s = build(workload, seed, ops)
    sessions = live.workloads[0].sessions
    futures = [future for session in sessions for future in session.futures]
    commit_stamps: List[float] = []

    def on_stable(_future) -> None:
        commit_stamps.append(clock())

    for future in futures:
        future.add_stable_callback(on_stable)

    if on_start is not None:
        on_start()
    start = clock()
    live.settle(max_time=MAX_SIM_TIME)
    run_s = clock() - start
    if on_end is not None:
        on_end()

    rep = Rep(
        setup_s=setup_s,
        run_s=run_s,
        attempted=len(futures),
        committed=sum(1 for future in futures if future.stable),
        weak_simt=[f.latency for f in futures if not f.strong and f.latency is not None],
        strong_simt=[f.latency for f in futures if f.strong and f.latency is not None],
        commit_stamps=[stamp - start for stamp in commit_stamps],
        counters=_counters(live, futures),
    )
    _check(rep.verdict, live, futures)
    return rep


def _counters(live, futures) -> Dict[str, Any]:
    groups = _groups(live)
    replicas = [replica for group in groups for replica in group.replicas]
    sim = groups[0].sim
    committed = max(1, sum(1 for future in futures if future.stable))
    weak = [f.latency for f in futures if not f.strong and f.latency is not None]
    strong = [f.latency for f in futures if f.strong and f.latency is not None]
    lag = [f.staleness for f in futures if not f.strong and f.staleness is not None]
    executions = sum(replica.execution_count for replica in replicas)
    # Each op executes usefully once on every replica of its own group.
    useful = sum(
        len(group.replicas) * sum(
            1 for f in futures if f.stable and _shard_of(f) == index
        )
        for index, group in enumerate(groups)
    )
    delivered = instances = 0
    for group in groups:
        tob = group.replicas[0].tob
        delivered += len(tob.delivered_sequence)
        if isinstance(tob, PaxosTOB):  # decided instances; NOOP gap fillers aside
            instances += sum(isinstance(v, Batch) for v in tob._decided.values())
        else:  # the sequencer orders one op per message
            instances += len(tob.delivered_sequence)
    routed = list(getattr(getattr(live, "router", None), "routed_counts", []) or [])
    digest = hashlib.sha256(
        repr([[req.dot for req in group.replicas[0].committed] for group in groups]).encode()
    ).hexdigest()
    return {
        "committed_ops": committed,
        "sim.events_per_op": sim.executed_events / committed,
        "net.msgs_per_op": sum(group.network.sent_count for group in groups) / committed,
        "broadcast.ops_per_instance": delivered / instances if instances else 0.0,
        "core.executions_per_op": executions / committed,
        "core.rollbacks_per_op": sum(r.rollback_count for r in replicas) / committed,
        "core.useful_exec_ratio": useful / executions if executions else 0.0,
        "shard.route_imbalance": (
            max(routed) / (sum(routed) / len(routed)) if routed and sum(routed) else 0.0
        ),
        **measure.latency_metrics(weak, strong, "simt", quantile=sim_quantile),
        "strong_p99_simt": sim_quantile(strong, 0.99),
        "stable_lag_p99_simt": sim_quantile(lag, 0.99),
        "weak_samples": len(weak),
        "strong_samples": len(strong),
        "committed_digest": digest,
    }


def _check(verdict: checks.Verdict, live, futures) -> None:
    checks.check_answered(
        verdict, ((index, f.done, f.stable) for index, f in enumerate(futures))
    )
    datatype = KVStore()
    for index, group in enumerate(_groups(live)):
        mine = [f for f in futures if f.dot is not None and _shard_of(f) == index]
        checks.check_group(
            verdict,
            datatype,
            f"shard {index}",
            [[req.dot for req in replica.committed] for replica in group.replicas],
            [replica.state.snapshot() for replica in group.replicas],
            {f.dot: f.op for f in mine},
            {f.dot: f.rval for f in mine if f.strong and f.done},
        )


def sub_seed(seed: int, index: int) -> int:
    """The ``index``-th input seed a run derives from its ``--seed``."""
    return seed * 1000 + index


def _merged(reps: List[Rep]) -> checks.Verdict:
    """Every rep's verdict, plus the determinism self-check.

    Reps run in pairs on one input seed; the second of a pair must
    reproduce the first's counters and simulated latencies exactly.
    """
    verdict = checks.Verdict()
    for rep in reps:
        verdict.merge(rep.verdict)
    for index, (first, again) in enumerate(zip(reps[0::2], reps[1::2])):
        if again.counters != first.counters:
            changed = sorted(
                name for name, value in first.counters.items()
                if again.counters.get(name) != value
            )
            verdict.group_failed(
                f"input seed {index} changed simulator counters when rerun: {changed}"
            )
    return verdict


def timed_run(workload: SimWorkload, seed: int, seconds: float, ops: Optional[int] = None):
    """Set up several times, then repeat reps for ``seconds``.

    Times are scaled to reference host speed (see :mod:`perfbench.hostspeed`);
    the details carry the raw figures too. Latencies are simulated ones
    read at ``MS_PER_SIMT``, so they take no wall-clock time into account.
    """
    host = hostspeed.HostSpeed()
    setups = []
    for _ in range(SETUP_BUILDS):
        setups.append(build(workload, sub_seed(seed, 0), ops)[1] * host.scale())
    reps: List[Rep] = []
    scales: List[float] = []
    window = clock()
    while True:
        # Each input seed runs twice in a row (the determinism self-check).
        reps.append(run_rep(workload, sub_seed(seed, len(reps) // 2), ops))
        scales.append(host.scale())
        elapsed = clock() - window
        # Stop after a pair when another pair would overrun the window.
        if (
            len(reps) % 2 == 0
            and len(reps) >= 2 * LATENCY_SEEDS
            and elapsed + 2 * elapsed / len(reps) > seconds
        ):
            break
    run_s = [rep.run_s * scale for rep, scale in zip(reps, scales)]
    setups += [rep.setup_s * scale for rep, scale in zip(reps, scales)]
    # The first rep of each of the first LATENCY_SEEDS input seeds.
    pooled = reps[0 : 2 * LATENCY_SEEDS : 2]
    weak = [latency for rep in pooled for latency in rep.weak_simt]
    strong = [latency for rep in pooled for latency in rep.strong_simt]
    values = {
        "setup_s": measure.median(setups),
        "committed_ops_per_s": measure.median(
            [rep.committed / seconds for rep, seconds in zip(reps, run_s)]
        ),
        "peak_rss_mb": measure.peak_rss_mb(),
        **measure.latency_metrics(
            weak, strong, "ms", MS_PER_SIMT, quantile=sim_quantile
        ),
    }
    detail = {
        "reps": len(reps),
        "ops_per_rep": reps[0].attempted,
        "input_seeds": (len(reps) + 1) // 2,
        "setup_samples": len(setups),
        "weak_samples": len(weak),
        "strong_samples": len(strong),
        "latency_seeds": len(pooled),
        "raw_committed_ops_per_s": measure.median([r.committed / r.run_s for r in reps]),
        "raw_run_s": [round(rep.run_s, 4) for rep in reps],
        "host_scale": [round(scale, 4) for scale in scales],
        "counters": reps[0].counters,
    }
    return values, sum(rep.attempted for rep in reps), _merged(reps), detail


def traced_run(workload: SimWorkload, seed: int, seconds: float, ops: Optional[int] = None):
    """One untraced rep, then the same rep with every layer wrapped.

    The traced rep must reproduce the untraced rep's counters: wrapping
    may cost time but never change what the program does.
    """
    plain = run_rep(workload, sub_seed(seed, 0), ops)
    tracer = layers.LayerTracer()
    layers.install(tracer)
    spans: Dict[str, Any] = {}
    traced = run_rep(
        workload, sub_seed(seed, 0), ops,
        on_start=tracer.reset, on_end=lambda: spans.update(tracer.totals()),
    )
    values = {f"{layer}.self_s": spans["self_s"].get(layer, 0.0) for layer in layers.LAYERS}
    values.update(
        {name: value for name, value in plain.counters.items() if name != "committed_digest"}
    )
    values.update({
        "broadcast.commit_wait_p50_simt": sim_quantile(spans["commit_waits"], 0.50),
        "core.adjust_execution_s": spans["inclusive_s"].get(
            "BayouReplica.adjust_execution", 0.0
        ),
        "runtime.wire_s": 0.0,
        "runtime.bytes_per_op": 0.0,
        "runtime.frames_per_op": 0.0,
        "runtime.rpc_wait_ms": 0.0,
        "trace.overhead": traced.run_s / plain.run_s,
        "progress.exponent": measure.loglog_slope(plain.commit_stamps),
    })
    detail = {
        "ops_per_rep": plain.attempted,
        "plain_run_s": round(plain.run_s, 4),
        "traced_run_s": round(traced.run_s, 4),
        "commit_wait_samples": len(spans["commit_waits"]),
        "calls": spans["calls"],
    }
    return values, plain.attempted + traced.attempted, _merged([plain, traced]), detail
