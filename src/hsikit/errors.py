"""Exception types shared across the toolkit, and the one rule that
names a faulty input file.

Argument validation raises plain ``ValueError``; the classes here mark
conditions the CLI maps to distinct exit codes (data errors vs numerical
failures). A reader of an outside file (a container, a config, a run's
artifact) raises plain ``ValueError``s inside :func:`naming`, which turns
each into a ``DataFormatError`` whose message starts with the file's
path, so every reader states only what is wrong.
"""

from contextlib import contextmanager

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


@contextmanager
def naming(path):
    """Run the block; a ``ValueError`` raised in it becomes
    ``DataFormatError(f"{path}: {exc}")``, and so does a
    ``RecursionError``, which ``json`` raises for a document nested too
    deeply to parse. Other errors, a ``DataFormatError`` that already
    names its file among them, pass."""
    try:
        yield
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
