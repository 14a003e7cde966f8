"""Tests of the benchmark itself: run with ``python -m pytest perfbench/tests``.

- a tiny run of every workload, timed and traced, emits every metric that
  ``BENCHMARK.json`` names, with its unit, and passes its output checks;
- the output checks catch a tampered committed sequence, a tampered final
  state and a tampered strong response;
- a realtime trial cut short by a lost connection counts its unsent ops
  as failed;
- without the program beside it the benchmark fails and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import checks, rtwork, simwork  # noqa: E402
from repro.datatypes.kvstore import KVStore  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_benchmark(workload: str, trace: int, cwd: str = ROOT):
    command = [sys.executable, *SPEC["command"][1:]] + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--ops", "64",
    ]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        metric["name"]: {"value": result["metrics"][metric["name"]]["value"],
                         "unit": metric["unit"]}
        for metric in wanted
    }
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    done = run_benchmark(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def tiny_run():
    """One small simulator rep and the data its shard 0 check reads."""
    workload = simwork.WORKLOADS["kv-shard4-paxos"]
    live, _ = simwork.build(workload, seed=3, ops=96)
    live.settle(max_time=simwork.MAX_SIM_TIME)
    futures = [f for session in live.workloads[0].sessions for f in session.futures]
    shard = live.deployment.shards[0]
    mine = [f for f in futures if simwork._shard_of(f) == 0]
    assert any(f.strong for f in mine), "pick a seed with a strong op on shard 0"
    return {
        "sequences": [[r.dot for r in replica.committed] for replica in shard.replicas],
        "states": [replica.state.snapshot() for replica in shard.replicas],
        "ops": {f.dot: f.op for f in mine},
        "strong": {f.dot: f.rval for f in mine if f.strong},
    }


def verdict_of(data) -> checks.Verdict:
    verdict = checks.Verdict()
    checks.check_group(
        verdict, KVStore(), "shard 0", data["sequences"], data["states"],
        data["ops"], data["strong"],
    )
    return verdict


def test_check_passes_a_real_run(tiny_run):
    assert verdict_of(tiny_run).ok


def test_check_catches_a_tampered_committed_sequence(tiny_run):
    tampered = dict(tiny_run, sequences=[list(s) for s in tiny_run["sequences"]])
    sequence = tampered["sequences"][2]
    sequence[0], sequence[1] = sequence[1], sequence[0]
    verdict = verdict_of(tampered)
    assert not verdict.ok
    assert "replica 2 committed sequence differs" in verdict.problems[0]


def test_check_catches_a_sequence_missing_its_tail(tiny_run):
    tampered = dict(tiny_run, sequences=[list(s) for s in tiny_run["sequences"]])
    tampered["sequences"][1].pop()
    assert not verdict_of(tampered).ok


def test_check_catches_a_tampered_final_state(tiny_run):
    states = [dict(state) for state in tiny_run["states"]]
    register = sorted(states[1], key=repr)[0]
    states[1][register] = "tampered"
    verdict = verdict_of(dict(tiny_run, states=states))
    assert verdict.failed == 1
    assert "replica 1 state differs" in verdict.problems[0]


def test_check_catches_a_tampered_strong_response(tiny_run):
    strong = dict(tiny_run["strong"])
    dot = next(iter(strong))
    strong[dot] = "tampered"
    verdict = verdict_of(dict(tiny_run, strong=strong))
    assert verdict.failed_ops == {("shard 0", dot)}


def test_check_counts_unanswered_ops():
    verdict = checks.Verdict()
    checks.check_answered(verdict, [(0, True, True), (1, False, False), (2, True, False)])
    assert verdict.failed == 2


class _DroppingClient:
    """Answers ``invoke`` a few times, then loses its connection."""

    def __init__(self, answers: int) -> None:
        self.answers = answers

    def invoke(self, op, *, strong, wait):
        if self.answers == 0:
            raise ConnectionResetError("replica gone")
        self.answers -= 1
        return {"dot": (1, self.answers), "value": None}


def test_lost_connection_fails_every_unsent_op():
    cluster = type("FakeCluster", (), {})()
    cluster.clients = [None, _DroppingClient(answers=3), None]
    records, _ = rtwork.drive(cluster, "seed", ops=10)
    assert len(records) == 10
    assert sum(record.error is None for record in records) == 3
    verdict = checks.Verdict()
    checks.check_answered(
        verdict, ((i, r.error is None, True) for i, r in enumerate(records))
    )
    assert verdict.failed == 7
