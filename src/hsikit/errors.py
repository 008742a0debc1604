"""Exception types shared across the toolkit.

Argument validation raises plain ``ValueError``; the classes here mark
conditions the CLI maps to distinct exit codes (data errors vs numerical
failures).
"""

__all__ = [
    "HsikitError",
    "DataFormatError",
    "ConvergenceError",
    "DegenerateDataError",
    "WorkerError",
]


class HsikitError(Exception):
    """Base class for toolkit-specific errors."""


class DataFormatError(HsikitError):
    """A container or interchange file is malformed or inconsistent."""


class ConvergenceError(HsikitError):
    """An iterative numerical routine failed to converge."""


class DegenerateDataError(HsikitError):
    """Input data admits no meaningful result (e.g. a single class)."""


class WorkerError(HsikitError):
    """A worker process ended before returning its result (the kernel's
    out-of-memory killer is the usual cause)."""
