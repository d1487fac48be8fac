"""Exception hierarchy shared across the package.

Two branches matter for the CLI: InputFormatError maps to exit code 2
(bad or inconsistent input files) and NumericError maps to exit code 3
(degenerate models, rank deficiency).
"""

from contextlib import contextmanager
from pathlib import Path


@contextmanager
def named(path, *kinds):
    """Prefix the name of path's file to an error of the given kinds raised inside."""
    try:
        yield
    except kinds as exc:
        exc.args = (f"{Path(path).name}: {exc}",)
        raise


def reason(exc: Exception) -> str:
    """exc's message; a KeyError's is only the key's repr, so it is named missing."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


class NasalanceError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(NasalanceError):
    """An input file or record violates its documented format."""


class AudioFormatError(InputFormatError):
    """WAV file problem; carries the byte offset where it was detected."""

    def __init__(self, message, byte_offset=None):
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class TextGridParseError(InputFormatError, ValueError):
    """TextGrid problem; carries the 1-based line number, if it has one."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class SynthSpecError(InputFormatError):
    """Synthesis spec is invalid (including specs that would clip)."""


class WordlistError(InputFormatError):
    """Wordlist CSV is malformed."""


class TokenSchemaError(InputFormatError):
    """Token CSV does not match the documented schema."""


class DesignError(InputFormatError):
    """Token set cannot support the requested model (e.g. one-level factor)."""


class CalibrationError(InputFormatError):
    """Calibration take unusable (insufficient valid signal)."""


class NumericError(NasalanceError):
    """Numerically degenerate computation."""


class RankDeficiencyError(NumericError):
    """Design matrix is rank deficient; carries the aliased column names."""

    def __init__(self, message, columns=()):
        if columns:
            message = f"{message}: {', '.join(columns)}"
        super().__init__(message)
        self.columns = tuple(columns)


class UndefinedFrameError(NasalanceError):
    """Nasalance is undefined because both channel amplitudes are zero."""


class UnmeasurableError(NasalanceError):
    """A nasalance value was requested at a time with no valid frame."""

    def __init__(self, t, reason="invalid-frame"):
        super().__init__(f"nasalance unmeasurable at t={t:.6f}s ({reason})")
        self.t = t
        self.reason = reason
