"""Exception hierarchy shared by all modules.

Every error carries a short stable ``code`` so the command line can emit a
single machine-parseable line (``error[<code>]: <message>``) before exiting
nonzero.
"""


class ToolError(Exception):
    """Base class for all errors raised by this package."""

    code = "internal"


class DomainError(ToolError):
    """A value violates a domain-type invariant or an operation precondition."""

    code = "domain"


class ConfigError(ToolError):
    """Invalid, unknown, or inconsistent configuration."""

    code = "config"


class ManifestError(ToolError):
    """A dataset manifest failed to parse or validate."""

    code = "manifest"


class PartitionError(ToolError):
    """Partition construction failed."""

    code = "partition"


class EmptyPartitionError(PartitionError):
    """No class survived filtering; training is impossible."""

    code = "empty-partition"


class TrainingError(ToolError):
    """Training could not start or diverged."""

    code = "training"


class CheckpointError(ToolError):
    """A checkpoint file is missing, malformed, or incompatible."""

    code = "checkpoint"


class RetrievalError(ToolError):
    """Descriptor index construction or search failed."""

    code = "retrieval"


class OutputError(ToolError):
    """An output file cannot be created or replaced."""

    code = "output"
