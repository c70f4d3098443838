"""Shared exception types.

Every refusal and precondition breach has its own class so callers (and the
CLI exit-code mapping) can tell them apart without string matching.
"""


class SephypError(Exception):
    """Base class for all library errors."""


class FormatError(SephypError):
    """Malformed input: bad JSON shape, unsorted edges, duplicates, bad rationals."""


class BudgetExceeded(SephypError):
    """The requested computation is larger than the configured budget allows."""


class Inapplicable(SephypError, ValueError):
    """An operation or flag does not apply to its arguments; a ValueError, so
    callers that catch ValueError keep working."""


class InvalidPartition(Inapplicable):
    """Partition parts overlap, miss vertices, are empty, or have the wrong count."""


class NotAGraph(Inapplicable):
    """A graph-only operation was applied to a hypergraph with k != 2."""


class NotAMatroid(SephypError):
    """Edge set fails the basis-exchange axiom (or derived structure reveals it)."""


class HasLoops(Inapplicable):
    """Operation requires a loopless matroid."""


class RankCollapse(SephypError):
    """A minor or constructor would leave rank 0 or rank equal to the ground size."""


class RankZero(SephypError):
    """GF(2) matrix has rank zero; no matroid of positive rank exists."""


class PreconditionViolated(SephypError):
    """Caller passed arguments outside an operation's stated precondition."""


class OracleInconsistent(SephypError):
    """Independence-oracle answers are not consistent with any matroid of the
    promised class."""


class InternalVerificationError(SephypError):
    """A certificate produced internally failed its own verifier; this is a bug."""
