"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to discriminate on the specific subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class TokenizerError(ReproError):
    """Tokenization or detokenization failed."""


class ModelError(ReproError):
    """A simulated-LLM call could not be served."""


class BudgetExceededError(ModelError):
    """A cost or token budget was exhausted mid-task."""


class VectorIndexError(ReproError):
    """A vector-index operation failed."""


class DimensionMismatchError(VectorIndexError):
    """A vector had the wrong dimensionality for the index."""


class CollectionError(ReproError):
    """A vector-database collection operation failed."""


class PlanError(ReproError):
    """Query planning over a data lake failed or produced an invalid plan."""


class ExecutionError(ReproError):
    """A query plan failed during execution."""


class SchemaError(ReproError):
    """A relational schema constraint was violated."""


class CheckpointError(ReproError):
    """Saving, loading, or resharding a training checkpoint failed."""


class ClusterError(ReproError):
    """The simulated GPU cluster rejected an operation."""


class SchedulerError(ReproError):
    """The inference scheduler reached an inconsistent state."""


class CacheError(ReproError):
    """KV-cache block management failed (e.g. out of blocks)."""


class WorkloadError(ReproError):
    """A workload generator was mis-configured."""


class PipelineError(ReproError):
    """A data-preparation pipeline stage failed."""

