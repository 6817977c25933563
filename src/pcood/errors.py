"""Exception types shared across the package.

Everything a caller can trigger with bad input derives from
``ValidationError`` (callers map it to exit code 1); a stream shorter or
longer than its header declares, and OS-level failures, map to exit
code 2.
"""


class PcoodError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(PcoodError, ValueError):
    """Input violates a documented precondition or invariant."""


class ParseError(ValidationError):
    """Malformed text input; the message names the offending line."""


class StructuralError(ValidationError):
    """Mismatched sizes, or accumulators with incompatible shapes."""


class FormatError(ValidationError):
    """Bad magic, version, or header field in a binary stream."""


class CapacityError(ValidationError):
    """Declared sizes exceed what this process can address."""


class TruncatedStreamError(PcoodError, IOError):
    """Stream length differs from its declared payload: it ended early or
    runs past the end."""
