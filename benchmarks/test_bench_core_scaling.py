"""Gate: the replica core's ordering cost grows with the divergent suffix,
not with the history.

One 3-replica sequencer cluster, 8 closed-loop sessions, Zipf keys over 64,
10% strong, perceived traces off: the keyed KV shape in which ordering work
dominates (``BayouReplica.adjust_execution`` re-diffing the order and the
commit path's "already executed?" check). Sizes are run at 1000 and 4000
ops, interleaved so a slow patch of the host hits both, best of three each.
The fitted log–log exponent of settle time against op count must stay at
or below ``EXPONENT_CEILING``: an O(history) diff per out-of-order delivery
makes the run quadratic (an exponent near 1.7 at these sizes), the suffix
diff keeps it near linear (about 1.0).
"""

import gc
import math
import time

from repro.datatypes.kvstore import KVStore
from repro.scenario import Scenario

SIZES = (1_000, 4_000)
ROUNDS = 3
SESSIONS = 8
EXPONENT_CEILING = 1.25


def _settle_seconds(ops):
    scenario = Scenario(KVStore(), name="core-scaling")
    scenario.replicas(3).exec_delay(0.1).message_delay(0.2).config(
        record_perceived_traces=False
    ).workload(
        "kv",
        keys=[f"k{i}" for i in range(64)],
        key_skew="zipf",
        ops_per_session=ops // SESSIONS,
        think_time=0.0,
        seed=1,
        sessions=SESSIONS,
        strong_probability=0.1,
    )
    live = scenario.build()
    gc.collect()
    started = time.perf_counter()
    live.settle(max_time=20_000.0)
    elapsed = time.perf_counter() - started
    futures = [f for session in live.workloads[0].sessions for f in session.futures]
    assert len(futures) == ops and all(future.stable for future in futures)
    assert live.converged()
    return elapsed


def test_replica_core_scales_linearly():
    best = {ops: math.inf for ops in SIZES}
    for _ in range(ROUNDS):
        for ops in SIZES:
            best[ops] = min(best[ops], _settle_seconds(ops))
    small, large = SIZES
    exponent = math.log(best[large] / best[small]) / math.log(large / small)
    assert exponent <= EXPONENT_CEILING, (
        f"settle time grows as ops^{exponent:.2f} "
        f"({best[small]:.3f}s at {small} ops, {best[large]:.3f}s at {large})"
    )
