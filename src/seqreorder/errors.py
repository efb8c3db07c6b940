"""Exception types shared across the package."""


class SeqReorderError(Exception):
    """Base class for all package errors."""


class ParseError(SeqReorderError):
    """A data file is structurally malformed (wrong columns, bad row)."""


class ValidationError(SeqReorderError):
    """An input violates a documented precondition."""


class AugmentationError(SeqReorderError):
    """A protein cannot be augmented (e.g. shorter than the block count)."""


class NumericError(SeqReorderError):
    """A numeric-domain violation: zero row sums, non-finite activations."""


class CheckpointError(SeqReorderError):
    """A checkpoint file is corrupt, truncated, or incompatible."""


class MetricError(SeqReorderError):
    """A metric is undefined for the given inputs (e.g. single-class labels)."""


class WorkerError(SeqReorderError):
    """The worker process that runs half of each training step died."""
