"""Oracle for the replica core's suffix diff.

``BayouReplica.adjust_execution`` compares ``executed`` with the order
only from the divergence index its caller passes, and ``on_tob_deliver``
decides "already executed?" by position. Both rest on one invariant:
``executed`` is a prefix of the order last adjusted to. This module checks
them against the full diff they replaced, on every call, across the
schedules that reach each caller:

- after each ``adjust_execution``, ``executed``, ``to_be_executed`` and
  ``to_be_rolled_back`` equal what a diff of the whole
  ``committed · tentative`` order yields (the longest common prefix; the
  order minus that prefix; the old rollback queue plus the reversed
  out-of-order tail), and ``executed[:divergence]`` matched beforehand;
- at each commit, the positional test ``len(executed) > index of req in
  committed`` agrees with dot membership in ``executed``;
- Algorithm 2's tail-execution check, which compares with the last
  tentative request only, agrees with comparing against all of them.

The wrappers live in this test only; the replica carries no checking mode.
"""

import sys
from collections import Counter as Tally

import pytest

from repro.analysis.experiments.reorder import run_divergent_suffix, run_drifting_clock
from repro.core.cluster import BayouCluster, MODIFIED, ORIGINAL
from repro.core.config import BayouConfig
from repro.core.modified_replica import ModifiedBayouReplica
from repro.core.replica import BayouReplica
from repro.datatypes.counter import Counter
from repro.datatypes.kvstore import KVStore
from repro.datatypes.rlist import RList
from repro.net.faults import CrashSchedule
from repro.net.partition import PartitionSchedule
from repro.scenario import Scenario


def _dots(requests):
    return [req.dot for req in requests]


def _full_diff(executed, order, rolled_back):
    """The unrestricted diff: ``(executed, to_be_executed, to_be_rolled_back)``."""
    common = 0
    for executed_req, ordered_req in zip(executed, order):
        if executed_req.dot != ordered_req.dot:
            break
        common += 1
    kept = executed[:common]
    kept_dots = set(_dots(kept))
    return (
        _dots(kept),
        [req.dot for req in order if req.dot not in kept_dots],
        _dots(rolled_back) + _dots(reversed(executed[common:])),
    )


class Oracle:
    """Counts what it checked, keyed by the calling replica method."""

    def __init__(self):
        self.adjusts = Tally()
        self.inserts = Tally()
        self.commits = 0
        self.executed_at_commit = 0
        self.kept_executions = 0


@pytest.fixture
def oracle(monkeypatch):
    """Wrap the replica's ordering methods with the full-diff checks.

    Installed before any cluster is built, so delivery callbacks bound at
    construction already see the wrappers.
    """
    checks = Oracle()
    adjust = BayouReplica.adjust_execution
    deliver = BayouReplica.on_tob_deliver
    insert = BayouReplica._insert_tentative
    may_keep = ModifiedBayouReplica._may_keep_execution

    def checked_adjust(replica, divergence):
        order = replica.committed + replica.tentative
        executed = list(replica.executed)
        matched = executed[:divergence]
        assert _dots(matched) == _dots(order[: len(matched)]), (
            f"executed[:{divergence}] does not match the new order"
        )
        expected = _full_diff(executed, order, replica.to_be_rolled_back)
        adjust(replica, divergence)
        actual = (
            _dots(replica.executed),
            _dots(replica.to_be_executed),
            _dots(replica.to_be_rolled_back),
        )
        assert actual == expected
        assert replica._executed_dots == expected[0]
        checks.adjusts[sys._getframe(1).f_code.co_name] += 1

    def checked_deliver(replica, key, req):
        fresh = req.dot not in replica._committed_dots
        index = len(replica.committed)
        deliver(replica, key, req)
        if not fresh:
            return
        assert replica.committed[index].dot == req.dot
        positional = len(replica.executed) > index
        assert positional == (req.dot in set(replica._executed_dots))
        checks.commits += 1
        checks.executed_at_commit += positional

    def counted_insert(replica, req):
        divergence = insert(replica, req)
        kind = "tail" if divergence is None else "mid"
        checks.inserts[(sys._getframe(1).f_code.co_name, kind)] += 1
        return divergence

    def counted_keep(replica, req):
        keep = may_keep(replica, req)
        assert keep == (
            replica.config.optimize_tail_execution
            and not (replica.to_be_rolled_back or replica.to_be_executed)
            and all(r < req for r in replica.tentative)
        )
        checks.kept_executions += keep
        return keep

    monkeypatch.setattr(BayouReplica, "adjust_execution", checked_adjust)
    monkeypatch.setattr(ModifiedBayouReplica, "_may_keep_execution", counted_keep)
    monkeypatch.setattr(BayouReplica, "on_tob_deliver", checked_deliver)
    monkeypatch.setattr(BayouReplica, "_insert_tentative", counted_insert)
    return checks


@pytest.mark.parametrize("engine", ["stepwise", "batched"])
def test_drifting_clock_both_engines(oracle, engine):
    run_drifting_clock(
        200,
        reorder_engine=engine,
        checkpoint_interval=16 if engine == "batched" else None,
        drift_period=10,
    )
    assert oracle.adjusts["adjust_tentative_order"] >= 10
    assert oracle.commits > 0 and oracle.executed_at_commit > 0


@pytest.mark.parametrize("engine", ["stepwise", "batched"])
def test_divergent_suffix(oracle, engine):
    run = run_divergent_suffix(
        60,
        waves=2,
        reorder_engine=engine,
        checkpoint_interval=8 if engine == "batched" else None,
    )
    assert run.rollbacks == [2 * 60, 0, 0]
    assert sum(oracle.adjusts.values()) >= 2


def test_anti_entropy_batches_mix_tail_and_mid_list_inserts(oracle):
    """Nothing commits while the sequencer (replica 3) is cut off, so every
    replica speculates on an uncommitted log. When replica 2 rejoins
    {0, 1}, one sync ships it both their logs: replica 0's requests (clock
    ahead) land mid-list and at the tail, then replica 1's land *before*
    the first of them, deep inside replica 2's executed prefix."""
    config = BayouConfig(
        n_replicas=4,
        exec_delay=0.05,
        message_delay=0.5,
        dissemination="anti_entropy",
        ae_sync_interval=0.5,
        sequencer_pid=3,
        clock_offsets={0: 3.0, 2: 1.0},
    )
    partitions = PartitionSchedule(4)
    partitions.split(2.0, [{0, 1}, {2}, {3}])
    partitions.split(12.0, [{0, 1, 2}, {3}])
    partitions.heal(20.0)
    cluster = BayouCluster(Counter(), config, protocol=ORIGINAL, partitions=partitions)
    for index in range(60):
        cluster.schedule_invoke(1.0 + 0.25 * index, index % 3, Counter.increment(1))
    cluster.run_until_quiescent()
    assert cluster.converged()
    assert cluster.replicas[0].state.snapshot()["counter:value"] == 60
    assert oracle.inserts[("on_rb_deliver_batch", "tail")] > 0
    assert oracle.inserts[("on_rb_deliver_batch", "mid")] >= 40
    assert oracle.adjusts["on_rb_deliver_batch"] > 0


def test_sharded_paxos_kv_non_head_commits(oracle):
    scenario = Scenario(KVStore(), name="oracle-shard4-paxos")
    scenario.shards(4).replicas(3).exec_delay(0.1).message_delay(0.2).config(
        record_perceived_traces=False
    ).workload(
        "kv",
        keys=[f"k{i}" for i in range(64)],
        key_skew="uniform",
        ops_per_session=12,
        think_time=0.0,
        seed=7,
        sessions=16,
        strong_probability=0.1,
    )
    scenario.tob("paxos").config(
        heartbeat_interval=2.0, failure_timeout=7.0, paxos_retry_interval=4.0
    )
    live = scenario.build()
    live.settle(max_time=20_000.0)
    assert live.converged()
    assert oracle.adjusts["on_tob_deliver"] > 0
    assert oracle.commits >= 3 * 16 * 12


def test_algorithm2_tail_execution(oracle):
    """Replica 1 hears of replica 0's requests one message delay before the
    sequencer (replica 2) commits them, and its clock runs behind: its own
    weak request sorts between two tentative ones, so footnote 8 must not
    keep that execution, while replica 0's tail requests keep theirs."""
    config = BayouConfig(
        n_replicas=3,
        exec_delay=0.01,
        message_delay=1.0,
        sequencer_pid=2,
        clock_offsets={1: -1.55},
        optimize_tail_execution=True,
    )
    cluster = BayouCluster(RList(), config, protocol=MODIFIED)
    for wave in range(8):
        at = 1.0 + 4.0 * wave
        cluster.schedule_invoke(at, 0, RList.append("a"))
        cluster.schedule_invoke(at + 0.5, 0, RList.duplicate())
        cluster.schedule_invoke(at + 1.8, 1, RList.append("b"))
        cluster.schedule_invoke(at + 2.2, 2, RList.append("c"), strong=wave % 2 == 0)
    cluster.run_until_quiescent()
    assert cluster.converged()
    assert oracle.adjusts["adjust_tentative_order"] > 0
    assert oracle.adjusts["on_tob_deliver"] > 0
    assert oracle.executed_at_commit > 0
    assert oracle.kept_executions > 0


@pytest.mark.parametrize("engine", ["stepwise", "batched"])
def test_crash_recovery_over_durable_store(oracle, engine):
    config = BayouConfig(
        n_replicas=3,
        exec_delay=0.05,
        message_delay=0.5,
        reorder_engine=engine,
        checkpoint_interval=3,
        durability="memory",
        clock_offsets={1: -4.0},
    )
    crashes = CrashSchedule()
    crashes.add(2, crash_at=6.0, recover_at=15.0)
    cluster = BayouCluster(Counter(), config, crashes=crashes)
    for index in range(30):
        at = 0.5 + 0.7 * index
        pid = index % 3
        if pid == 2 and 6.0 <= at <= 15.0:
            pid = 0
        cluster.schedule_invoke(at, pid, Counter.increment(1))
    cluster.run_until_quiescent()
    assert cluster.converged()
    snapshots = [replica.state.snapshot() for replica in cluster.replicas]
    assert snapshots[0] == snapshots[1] == snapshots[2]
    assert snapshots[0]["counter:value"] == 30
    assert cluster.replicas[2].crash_times == [6.0]
    assert sum(oracle.adjusts.values()) > 0
    assert oracle.commits > 0
