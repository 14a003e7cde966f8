"""Output checks shared by every workload.

Each check works on plain data — dot sequences, state snapshots, response
values — so the simulator and the socket runs feed it the same way and the
tests can hand it tampered copies.

- every attempted op is answered and stable;
- each replica group (a shard, or the whole cluster) holds equal committed
  sequences, compared element by element (``converged()`` does not compare
  committed prefixes);
- every op of the group is committed exactly once;
- each replica's final state equals ``DataType.replay`` of the committed
  order;
- each strong op's response equals the replay value at its committed
  position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.datatypes.base import DataType, Operation, PlainDb

Dot = Tuple[int, int]


@dataclass
class Verdict:
    """Problems found so far and the ops they concern."""

    problems: List[str] = field(default_factory=list)
    failed_ops: Set[Hashable] = field(default_factory=set)
    #: Failures no op of this verdict carries: a replica's state, or the
    #: failures of merged verdicts.
    other_failures: int = 0

    def op_failed(self, op_id: Hashable, problem: str) -> None:
        self.failed_ops.add(op_id)
        self.problems.append(problem)

    def group_failed(self, problem: str) -> None:
        self.other_failures += 1
        self.problems.append(problem)

    def merge(self, other: "Verdict") -> None:
        self.problems.extend(other.problems)
        self.other_failures += other.failed

    @property
    def failed(self) -> int:
        return len(self.failed_ops) + self.other_failures

    @property
    def ok(self) -> bool:
        return not self.problems


def check_answered(
    verdict: Verdict, outcomes: Iterable[Tuple[Hashable, bool, bool]]
) -> None:
    """``outcomes`` holds ``(op id, answered, stable)`` per attempted op."""
    for op_id, answered, stable in outcomes:
        if not answered:
            verdict.op_failed(op_id, f"op {op_id} never answered")
        elif not stable:
            verdict.op_failed(op_id, f"op {op_id} answered but never stable")


def check_group(
    verdict: Verdict,
    datatype: DataType,
    group: str,
    sequences: Sequence[Sequence[Dot]],
    states: Sequence[Mapping[Any, Any]],
    ops: Mapping[Dot, Operation],
    strong_responses: Mapping[Dot, Any],
) -> None:
    """Check one replica group against the replay of its committed order.

    ``sequences[i]``/``states[i]`` are replica ``i``'s committed dots and
    final state; ``ops`` maps every op the group was sent to its operation;
    ``strong_responses`` holds the response of each strong op.
    """
    reference = list(sequences[0])
    for index, sequence in enumerate(sequences[1:], start=1):
        sequence = list(sequence)
        if sequence == reference:
            continue
        position = next(
            (p for p, (a, b) in enumerate(zip(sequence, reference)) if a != b),
            min(len(sequence), len(reference)),
        )
        verdict.group_failed(
            f"{group}: replica {index} committed sequence differs from "
            f"replica 0 at position {position} (lengths {len(sequence)} "
            f"and {len(reference)})"
        )
    seen: Set[Dot] = set()
    for dot in reference:
        if dot in seen:
            verdict.op_failed((group, dot), f"{group}: {dot} committed twice")
        elif dot not in ops:
            verdict.op_failed((group, dot), f"{group}: unknown op {dot} committed")
        seen.add(dot)
    for dot in ops:
        if dot not in seen:
            verdict.op_failed((group, dot), f"{group}: op {dot} never committed")

    # Replay the committed order once: the value each op returns at its
    # committed position, and the final state (what ``DataType.replay``
    # computes, one op at a time).
    db = PlainDb()
    replayed: Dict[Dot, Any] = {
        dot: datatype.execute(ops[dot], db) for dot in reference if dot in ops
    }
    final = db.data
    for index, state in enumerate(states):
        if dict(state) != final:
            diff = sorted(
                repr(k) for k in set(state) | set(final)
                if state.get(k) != final.get(k)
            )
            verdict.group_failed(
                f"{group}: replica {index} state differs from the replay of "
                f"the committed order on {len(diff)} registers, e.g. {diff[:3]}"
            )
    for dot, response in strong_responses.items():
        if dot in replayed and replayed[dot] != response:
            verdict.op_failed(
                (group, dot),
                f"{group}: strong op {dot} answered {response!r}, replay at "
                f"its committed position gives {replayed[dot]!r}",
            )
