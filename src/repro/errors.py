"""The library's exception hierarchy.

Every error the public API raises derives from :class:`ReproError`, so
callers can catch one base class at an experiment boundary. Errors that
used to live next to their raise sites (``UnknownOperationError`` in
:mod:`repro.datatypes.base`) are defined here and re-exported from their
historical homes for compatibility.
"""

from __future__ import annotations

from typing import Any, List, Sequence


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class UnknownOperationError(ReproError, ValueError):
    """Raised when a data type is asked to execute an operation it lacks."""


class SessionProtocolError(ReproError, RuntimeError):
    """Raised when a session's well-formedness is violated.

    The paper's histories are *well-formed* (Section 3.2): within a session
    a new operation may be invoked only after the previous one returned.
    :meth:`repro.core.session.Session.call` enforces this at the API level.
    """


class PendingResponseError(ReproError, RuntimeError):
    """Raised when reading the value of an operation that has not returned.

    The paper writes ∇ for the "return value" of a pending operation; use
    :attr:`repro.core.session.OpFuture.rval` to observe that sentinel
    instead of raising.
    """


class ReplicaUnavailableError(ReproError, RuntimeError):
    """Raised when an operation is invoked on a crashed replica.

    A crashed replica "ceases all communication" — a real client could not
    reach it, so the harness refuses the invocation instead of silently
    executing it on a process that is supposed to be dead. Re-issue the
    operation after the replica recovers (or against a survivor).
    """


class CrossShardError(ReproError, RuntimeError):
    """Raised when an operation cannot be routed across shards.

    A multi-key operation whose keys live on different shards needs a
    cross-shard plan (a prepare/commit decomposition declared by its data
    type) and must be issued *strongly* — each staged sub-operation goes
    through its owner shard's TOB so the paper's strong/weak split
    survives sharding. Weak multi-shard operations and multi-key
    operations without a plan are refused at the router.
    """


class MigrationError(ReproError, RuntimeError):
    """Raised when a live resharding step cannot start or proceed.

    Examples: splitting a retired shard, migrating an unkeyed data type
    (no per-key register groups to hand over), or starting a second
    migration on a shard whose previous one has not activated yet.
    """


class MigrationStrandedError(MigrationError):
    """A live migration lost an endpoint and can never complete.

    Raised semantics, not raised control flow: when every replica of a
    migration endpoint crash-*stops* between the epoch barrier and the
    epoch activation, the handoff is permanently wedged — the barrier
    committed (or the install will never commit) and no replica remains
    to drive the protocol forward. The deployment detects this at crash
    time, marks the migration ``stranded`` (releasing ``converged()``
    and the one-migration-per-shard slot instead of wedging them
    forever), and surfaces an instance of this error in
    ``RunResult.checks["migrations"]`` so scenario assertions see
    a named failure rather than a hang.
    """

    def __init__(self, message: str, *, migration: Any = None):
        super().__init__(message)
        #: The stranded :class:`~repro.shard.migration.Migration`.
        self.migration = migration


class MigrationInProgress(ReproError, RuntimeError):
    """Raised when an operation's keys are mid-handoff between shards.

    Between the source shard's epoch barrier and the new epoch's
    activation, the moving keys' committed snapshot is frozen; accepting
    new operations for them at the source would silently lose the
    updates at the destination. Routers catch this internally and retry
    the submission when the migration completes (the *retry path*) —
    clients only observe extra latency, never a refusal.
    """

    def __init__(self, message: str, *, migration: Any = None, key: Any = None):
        super().__init__(message)
        #: The in-flight :class:`~repro.shard.migration.Migration`;
        #: register a retry with ``migration.when_complete(callback)``.
        self.migration = migration
        #: The key whose handoff blocked the submission.
        self.key = key


class DivergedOrderError(ReproError, AssertionError):
    """Raised when replicas disagree on the total-order-broadcast prefix.

    TOB guarantees that all replicas deliver the same sequence; if two
    replicas ever report incomparable delivered sequences, the run is not a
    Bayou execution at all and every downstream check would be meaningless.
    The message pinpoints the first index at which the sequences diverge.
    """

    def __init__(
        self, message: str, *, index: int = -1, sequences: Sequence[Any] = ()
    ) -> None:
        super().__init__(message)
        #: First position at which the two sequences disagree.
        self.index = index
        #: The two conflicting delivered sequences.
        self.sequences = tuple(sequences)

    @classmethod
    def from_sequences(
        cls, observed: Sequence[Any], reference: Sequence[Any]
    ) -> "DivergedOrderError":
        """Build the error with a readable diff of the two sequences."""
        index = _first_divergence(observed, reference)
        lines: List[str] = [
            "TOB delivered inconsistent orders "
            f"(first divergence at index {index}):",
            "  " + _render_sequence(observed, index),
            "  " + _render_sequence(reference, index),
        ]
        return cls("\n".join(lines), index=index, sequences=(observed, reference))


def _first_divergence(a: Sequence[Any], b: Sequence[Any]) -> int:
    """The first index where the sequences differ (one may be a prefix)."""
    for index, (left, right) in enumerate(zip(a, b)):
        if left != right:
            return index
    return min(len(a), len(b))


def _render_sequence(sequence: Sequence[Any], index: int, context: int = 3) -> str:
    """Render a sequence with the diverging element bracketed."""
    start = max(0, index - context)
    end = min(len(sequence), index + context + 1)
    parts: List[str] = ["..."] if start > 0 else []
    for position in range(start, end):
        rendered = repr(sequence[position])
        parts.append(f">>{rendered}<<" if position == index else rendered)
    if index >= len(sequence):
        parts.append(">>∅ (sequence ends)<<")
    if end < len(sequence):
        parts.append("...")
    return " ".join(parts)
