"""One replica stack for the simulator and for ``python -m repro serve``.

:func:`repro.core.stack.build_replica_stack` builds both. The parity test
builds a sim cluster and a served replica from the same config (no
sockets: the server is only constructed, inside a running loop) and
compares their components. The ``realtime`` test starts a 3-process
Multi-Paxos cluster over localhost TCP.
"""

from __future__ import annotations

import asyncio
import itertools

import pytest

from repro.core.cluster import BayouCluster
from repro.datatypes import KVStore
from repro.runtime.launcher import RealtimeCluster
from repro.runtime.serve import DATATYPES, ClusterSpec, ReplicaServer

PAXOS_KNOBS = {
    "retry_interval": "paxos_retry_interval",
    "max_batch": "paxos_max_batch",
    "max_inflight": "paxos_max_inflight",
    "dual_2b": "paxos_dual_2b",
    "catchup_batch": "paxos_catchup_batch",
    "catchup_rate": "paxos_catchup_rate",
    "catchup_burst": "paxos_catchup_burst",
}


def _served(spec: ClusterSpec, pid: int) -> ReplicaServer:
    async def build() -> ReplicaServer:
        return ReplicaServer(spec, pid)

    return asyncio.run(build())


@pytest.mark.parametrize(
    "dissemination, tob_engine",
    list(itertools.product(("rb", "anti_entropy"), ("sequencer", "paxos"))),
)
def test_sim_and_served_replicas_have_the_same_stack(dissemination, tob_engine):
    spec = ClusterSpec(
        ports=[7001, 7002, 7003],
        dissemination=dissemination,
        tob_engine=tob_engine,
    )
    config = spec.to_config()
    sim_replica = BayouCluster(DATATYPES[spec.datatype](), config).replicas[1]
    server = _served(spec, 1)
    served = server.replica

    assert type(served) is type(sim_replica)
    assert type(served.rb) is type(sim_replica.rb)
    assert type(served.tob) is type(sim_replica.tob)
    if dissemination == "anti_entropy":
        for replica in (sim_replica, served):
            assert replica.rb.sync_interval == config.ae_sync_interval
            assert replica.rb._deliver_batch is not None
    if tob_engine == "paxos":
        assert type(server.omega) is type(sim_replica.tob.omega)
        assert server.omega is served.tob.omega
        for replica in (sim_replica, served):
            for attribute, field_name in PAXOS_KNOBS.items():
                assert getattr(replica.tob, attribute) == getattr(
                    config, field_name
                ), attribute
            assert replica.tob.max_gap == config.paxos_max_inflight
            assert replica.tob._deliver_batch is not None
    else:
        assert server.omega is None


def test_paxos_server_builds_outside_a_running_loop():
    spec = ClusterSpec(tob_engine="paxos", ports=[7001, 7002, 7003])
    server = ReplicaServer(spec, 0)
    assert server.omega is not None
    assert server.runtime.now() == 0.0


@pytest.mark.realtime
@pytest.mark.timeout(120)
def test_three_process_paxos_cluster_serves_weak_and_strong():
    spec = ClusterSpec(n_replicas=3, tob_engine="paxos")
    with RealtimeCluster(spec) as cluster:
        weak = cluster.invoke(1, KVStore.put("k", "v1"), wait="stable")
        assert weak["value"] is None and weak["stable"]
        strong = cluster.invoke(2, KVStore.get("k"), strong=True, wait="stable")
        assert strong["stable"]
        assert strong["value"] == "v1"
        cluster.await_convergence(expect_committed=2)
        statuses = cluster.statuses()
        committed = [status["committed"] for status in statuses]
        assert len(committed[0]) == 2
        assert committed[1] == committed[0] and committed[2] == committed[0]
