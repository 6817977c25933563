"""Exception types shared across the package.

Every input error is one of two types, and its message names the line,
index, member or header field at fault. Input that breaks a documented
precondition or invariant (a malformed line, mismatched sizes, a bad
header field, sizes past what the process can address) raises
``ValidationError``, which callers map to exit code 1. A stream shorter
or longer than its header declares raises ``TruncatedStreamError``,
which callers map, like OS-level failures, to exit code 2.
"""


class PcoodError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(PcoodError, ValueError):
    """Input violates a documented precondition or invariant."""


class TruncatedStreamError(PcoodError, IOError):
    """Stream length differs from its declared payload: it ended early or
    runs past the end."""
