"""Run one workload of the repository's benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload kv-shard4-paxos --seed 1 --seconds 20 --trace 0

``BENCHMARK.json`` (beside ``perfbench/``) names the workloads and the
metrics. ``--trace 0`` is the timed run and prints every end-to-end metric;
``--trace 1`` is the traced run and prints every per-layer metric. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
details (sample counts, rep times, output-check problems).

The run fails with exit code 2, printing no result, when the program under
``src/repro`` is missing. See ``perfbench/LAYERS.md`` for the workloads, the
metrics and what each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int, default=None,
        help="ops per rep or trial (default: the workload's size; for smoke tests)",
    )
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace):
    from perfbench import rtwork, simwork

    if args.workload == "rt-kv-tcp":
        run = rtwork.traced_run if args.trace else rtwork.timed_run
        return run(ROOT, args.seed, args.seconds, args.ops)
    workload = simwork.WORKLOADS[args.workload]
    run = simwork.traced_run if args.trace else simwork.timed_run
    return run(workload, args.seed, args.seconds, args.ops)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure under {ROOT}/src/repro", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

    values, attempted, verdict, detail = run_workload(args)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 2
    metrics: Dict[str, Any] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    print(json.dumps({"detail": detail, "problems": verdict.problems[:20]}, default=str))
    print(json.dumps({
        "correct": verdict.ok,
        "attempted": attempted,
        "failed": min(verdict.failed, attempted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
