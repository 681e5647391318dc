"""Exception hierarchy for the suml package."""


class SumlError(Exception):
    """Base class for all package errors."""


class ZeroNormError(SumlError):
    """A vector with (numerically) zero L2 norm where a direction is required."""


class DimMismatchError(SumlError):
    """Vector dimensions do not agree."""


class ShapeMismatchError(SumlError):
    """Matrix/batch shapes do not agree."""


class InvalidViewError(SumlError):
    """View tag is neither 'fpv' nor 'tpv'."""


class DatasetIOError(SumlError):
    """Dataset file could not be read or written."""


class DatasetParseError(SumlError):
    """Dataset file is malformed; message carries the offending line number."""


class EmptyCorpusError(SumlError):
    """Mining requires nonempty corpora on both sides."""


class BadEdgesError(SumlError):
    """Histogram bucket edges are not strictly ascending or do not cover [-1, 1]."""


class BatchTooSmallError(SumlError):
    """Contrastive losses need at least two pairs in the batch."""


class LabelOutOfRangeError(SumlError):
    """A class label falls outside [0, n_classes)."""


class EmptySetError(SumlError):
    """Evaluation requires a nonempty dataset."""


class ConfigError(SumlError):
    """Invalid run configuration."""


class ConfigParseError(ConfigError):
    """Config file is not valid JSON or contains unknown keys."""


class ConfigValidationError(ConfigError):
    """Config values violate a declared invariant."""


class InvalidSpecError(ConfigValidationError):
    """A world specification violates its invariants."""


class AllocationError(SumlError):
    """An array the configuration asks for is too large for numpy to allocate."""


class DivergenceError(SumlError):
    """A training loss became non-finite; message names the stage, epoch and batch."""


class NormOverflowError(SumlError):
    """Vector norms too large for float64: their products overflow."""


class WorkerError(SumlError):
    """A worker process ended without its result; message names the cell and exit status."""
