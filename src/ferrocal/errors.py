"""Exception hierarchy for the toolkit.

Every error raised by ferrocal derives from :class:`FerrocalError`, so callers
(and the CLI) can map failure classes to exit codes without matching on
message text. ``first_non_utf8`` finds the line that the input readers name
when a file is not UTF-8 text.
"""

from pathlib import Path


class FerrocalError(Exception):
    """Base class for all toolkit errors."""


class DomainError(FerrocalError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(FerrocalError, ValueError):
    """A configuration value or object violates its invariants."""


class RankError(FerrocalError):
    """Input data are degenerate (flat / constant) and cannot constrain a fit."""


class FitError(FerrocalError):
    """The optimizer failed to converge.

    Carries the best parameters reached so far in ``best_fit`` (may be None).
    """

    def __init__(self, message, best_fit=None):
        super().__init__(message)
        self.best_fit = best_fit


class AmbiguousMarkerError(FerrocalError):
    """The curve crosses the marker level more than once."""


class RangeError(FerrocalError):
    """A computed voltage falls outside the programmable DAC range."""


class ParseError(FerrocalError):
    """An input file is malformed. ``line`` is the 1-based offending line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def first_non_utf8(path):
    """(line, byte) of the first byte of the file at ``path`` that is not
    UTF-8, counting lines from 1; None if every byte is."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1, data[exc.start]
    return None
