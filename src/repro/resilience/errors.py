"""Structured error taxonomy for the STA pipeline.

Every failure a user can hit maps to one exception class carrying a
process exit code (BSD ``sysexits.h`` conventions where one fits) and a
one-line human message, so the CLI can print ``error: <message>`` and
exit with a *distinct* nonzero status instead of dumping a raw
traceback.  ``--log-level debug`` keeps the full stack.

The taxonomy is a leaf module -- it imports nothing from the rest of
the package -- so any layer (netlist parsing, characterization, the
search, the parallel supervisor) can raise through it without import
cycles.  :func:`classify` wraps foreign exceptions (``OSError`` from a
bad netlist path, parser ``ValueError``\\ s) into the taxonomy at the
boundaries that receive user input.
"""

from __future__ import annotations

from typing import Optional

#: Conventional exit codes (sysexits.h + shell SIGINT convention).
EXIT_DATAERR = 65       #: malformed input data (netlist, library)
EXIT_NOINPUT = 66       #: input file missing / unreadable
EXIT_UNAVAILABLE = 69   #: a required resource (timing arc) is absent
EXIT_SOFTWARE = 70      #: internal invariant violation
EXIT_CANTCREAT = 73     #: a requested output file cannot be written
EXIT_CONFIG = 78        #: bad configuration (checkpoint mismatch, flags)
EXIT_INTERRUPTED = 130  #: SIGINT (128 + signal 2)


class ResilienceError(Exception):
    """Base of the taxonomy: an error with an exit code and a one-line
    user-facing message (``str(exc)``)."""

    exit_code: int = EXIT_SOFTWARE

    def __init__(self, message: str, *, cause: Optional[BaseException] = None):
        super().__init__(message)
        if cause is not None:
            self.__cause__ = cause


class NetlistLoadError(ResilienceError):
    """Netlist file missing, unreadable, or of an unknown format."""

    exit_code = EXIT_NOINPUT


class NetlistFormatError(ResilienceError):
    """Netlist parsed but is malformed (syntax, unknown cell, bad pin)."""

    exit_code = EXIT_DATAERR


class UnknownCellError(NetlistFormatError):
    """An instance references a cell the library does not provide."""


class MissingArcFailure(ResilienceError):
    """A timing arc required by the analysis is absent from the
    characterized library and the active missing-arc policy forbids
    substitution (see :mod:`repro.core.delaycalc`)."""

    exit_code = EXIT_UNAVAILABLE


class OutputWriteError(ResilienceError):
    """A user-requested output artifact (``--metrics-json``,
    ``--trace-json``, ``--json``) could not be written.  The analysis
    itself succeeded, but silently dropping a requested artifact is a
    failure: exit ``EX_CANTCREAT`` instead of 0."""

    exit_code = EXIT_CANTCREAT


class ConfigError(ResilienceError, ValueError):
    """A flag or option value the user supplied is invalid (unknown
    missing-arc policy, ``--jobs 0``, ...).

    Maps to ``EX_CONFIG`` so bad configuration exits 78 with a
    one-line message instead of either a raw ``ValueError`` traceback
    or the misleading ``EX_DATAERR`` that :func:`classify` assigns to
    generic ``ValueError``\\ s (which is reserved for malformed *input
    data*).  Also subclasses :class:`ValueError` for callers that
    historically caught the raw validation error."""

    exit_code = EXIT_CONFIG


class CheckpointError(ResilienceError):
    """Checkpoint file unreadable, corrupt, or incompatible with the
    current circuit/search configuration."""

    exit_code = EXIT_CONFIG


class SearchInterrupted(ResilienceError):
    """The search was interrupted (SIGINT); completed-shard results and
    metrics were preserved before unwinding."""

    exit_code = EXIT_INTERRUPTED


def classify(exc: BaseException, context: str = "") -> ResilienceError:
    """Wrap a foreign exception into the taxonomy.

    Used at user-input boundaries (CLI netlist loading, checkpoint
    reads) so one ``except ResilienceError`` in the driver covers every
    failure; already-classified errors pass through unchanged.
    """
    if isinstance(exc, ResilienceError):
        return exc
    prefix = f"{context}: " if context else ""
    if isinstance(exc, FileNotFoundError):
        return NetlistLoadError(f"{prefix}file not found: {exc.filename or exc}",
                                cause=exc)
    if isinstance(exc, (IsADirectoryError, PermissionError, OSError)):
        return NetlistLoadError(f"{prefix}cannot read input: {exc}", cause=exc)
    if isinstance(exc, (ValueError, KeyError)):
        detail = exc.args[0] if exc.args else exc
        return NetlistFormatError(f"{prefix}{detail}", cause=exc)
    return ResilienceError(f"{prefix}{exc}", cause=exc)
