"""Exception taxonomy shared across the pipeline.

Every error raised by emgforge derives from PipelineError so callers (and
the CLI exit-code mapping) can catch one base class.
"""


class PipelineError(Exception):
    """Base class for all emgforge errors."""


class ConfigError(PipelineError):
    """Invalid or inconsistent configuration value."""


class InvalidCutoffError(ConfigError):
    """Filter cutoff outside (0, Nyquist) or badly ordered."""


class InvalidOrderError(ConfigError):
    """Filter order below 1 or not an integer."""


class EmptyInputError(PipelineError):
    """Operation received an empty signal."""


class DegenerateSignalError(PipelineError):
    """Signal has no usable content (e.g. all-zero envelope)."""


class NonFiniteInputError(PipelineError):
    """Signal holds a NaN or infinite sample where only finite ones are valid."""


class DegenerateInputError(PipelineError):
    """Metric input with zero norm."""


class TooShortError(PipelineError):
    """Signal too short for the requested analysis."""


class InvalidPeaksError(PipelineError):
    """Peak indices unsorted, duplicated, or out of range."""


class ShapeError(PipelineError):
    """Array shapes inconsistent with the operation contract."""


class SchemaError(PipelineError):
    """Input file does not match the expected column schema."""


class EmptyFileError(PipelineError):
    """Input file contains no valid data rows."""


class NoActivityError(PipelineError):
    """No contraction peaks found in a recording."""


class InsufficientDataError(PipelineError):
    """Not enough segments for the requested split or evaluation."""


class DivergenceError(PipelineError):
    """Training produced a non-finite loss or gradient."""


class StreamStateError(PipelineError):
    """Streaming state does not match the model configuration."""


class StreamMismatchError(PipelineError):
    """Streaming forward pass departs from the batch forward pass."""


class CheckpointError(PipelineError):
    """Checkpoint file unreadable, truncated, or config-incompatible, or its
    weights give non-finite predictions or metrics."""
