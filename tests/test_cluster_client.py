"""Tests for the cluster harness and closed-loop client sessions."""

import pytest

from repro.core.session import Session
from repro.core.cluster import BayouCluster, MODIFIED, ORIGINAL
from repro.core.config import BayouConfig
from repro.datatypes.counter import Counter
from repro.datatypes.rlist import RList
from repro.framework.history import PENDING
from repro.net.partition import PartitionSchedule


def make_cluster(protocol=ORIGINAL, datatype=None, **kwargs):
    config = BayouConfig(n_replicas=3, exec_delay=0.05, message_delay=1.0, **kwargs)
    return BayouCluster(datatype or Counter(), config, protocol=protocol)


def test_config_validation():
    with pytest.raises(ValueError):
        BayouConfig(n_replicas=0).validate()
    with pytest.raises(ValueError):
        BayouConfig(tob_engine="carrier-pigeon").validate()
    with pytest.raises(ValueError):
        BayouConfig(sequencer_pid=7, n_replicas=3).validate()
    with pytest.raises(ValueError):
        BayouCluster(Counter(), BayouConfig(), protocol="nonsense")


def test_history_records_invoke_and_return_times():
    cluster = make_cluster()
    cluster.schedule_invoke(2.0, 0, Counter.increment(1))
    cluster.run_until_quiescent()
    event = cluster.build_history().events[0]
    assert event.invoke_time == 2.0
    assert event.return_time is not None and event.return_time >= 2.0
    assert event.rval == 1


def test_history_assigns_consistent_tob_numbers():
    cluster = make_cluster()
    for index in range(6):
        cluster.schedule_invoke(1.0 + index, index % 3, Counter.increment(1))
    cluster.run_until_quiescent()
    history = cluster.build_history()
    tob_numbers = sorted(
        event.tob_no for event in history.events if event.tob_no is not None
    )
    assert tob_numbers == list(range(6))


def test_pending_strong_op_in_partition():
    partitions = PartitionSchedule(3)
    partitions.split(0.5, [[0, 1], [2]])
    config = BayouConfig(n_replicas=3, exec_delay=0.05, message_delay=1.0)
    cluster = BayouCluster(Counter(), config, partitions=partitions)
    cluster.schedule_invoke(1.0, 2, Counter.increment(1), strong=True)
    cluster.run(until=100.0)
    history = cluster.build_history(well_formed=False)
    assert history.events[0].rval is PENDING


def test_convergence_report_structure():
    cluster = make_cluster()
    cluster.schedule_invoke(1.0, 0, Counter.increment(1))
    cluster.run_until_quiescent()
    report = cluster.convergence_report()
    assert report["converged"] is True
    assert report["committed_lengths"] == [1, 1, 1]
    assert report["backlogs"] == [0, 0, 0]


def test_paxos_engine_end_to_end():
    config = BayouConfig(
        n_replicas=3, exec_delay=0.05, message_delay=1.0, tob_engine="paxos"
    )
    cluster = BayouCluster(Counter(), config)
    cluster.schedule_invoke(1.0, 0, Counter.increment(1))
    cluster.schedule_invoke(2.0, 1, Counter.increment(2), strong=True)
    assert cluster.run_until_stable(max_time=2000.0)
    cluster.shutdown()
    cluster.run_until_quiescent()
    assert cluster.converged()
    history = cluster.build_history(well_formed=False)
    strong = next(e for e in history.events if e.level == "strong")
    assert not strong.pending


def test_probe_spacing_accounts_for_clock_offsets():
    cluster = make_cluster(clock_offsets={1: -3.0, 2: 2.0})
    cluster.schedule_invoke(1.0, 0, Counter.increment(1))
    cluster.run_until_quiescent()
    cluster.add_horizon_probes(Counter.read)
    cluster.run_until_quiescent()
    history = cluster.build_history()
    probes = history.events_after_horizon()
    assert len(probes) == 3
    timestamps = [probe.timestamp for probe in probes]
    assert timestamps == sorted(timestamps)


def test_session_runs_operations_sequentially():
    cluster = make_cluster()
    session = Session(cluster, 0, think_time=0.5)
    for index in range(5):
        session.submit(Counter.increment(1))
    cluster.run_until_quiescent()
    assert session.idle
    assert session.completed == 5
    history = cluster.build_history()  # must be well-formed
    assert len(history) == 5


def test_session_on_response_callback():
    cluster = make_cluster()
    seen = []
    session = Session(
        cluster, 0, on_response=lambda op, strong, rval, lat: seen.append(rval)
    )
    session.submit(Counter.increment(5))
    session.submit(Counter.read())
    cluster.run_until_quiescent()
    assert seen == [5, 5]


def test_session_latencies_recorded():
    cluster = make_cluster(protocol=MODIFIED)
    session = Session(cluster, 1)
    session.submit(Counter.increment(1))          # weak: immediate
    session.submit(Counter.increment(1), True)    # strong: waits for TOB
    cluster.run_until_quiescent()
    assert len(session.latencies) == 2
    assert session.latencies[0] == 0.0
    assert session.latencies[1] > 0.0


def test_mixed_sessions_multiple_replicas_converge():
    cluster = make_cluster(datatype=RList())
    sessions = [Session(cluster, pid, think_time=0.3) for pid in range(3)]
    for index, session in enumerate(sessions):
        for op_index in range(4):
            session.submit(
                RList.append(f"{index}{op_index}"), strong=op_index == 2
            )
    cluster.run_until_quiescent()
    assert all(session.idle for session in sessions)
    assert cluster.converged()
    assert len(cluster.replicas[0].committed) == 12
