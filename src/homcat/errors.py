"""Exception hierarchy shared by the library and the command line tool.

Every class below signals a problem with the caller's input.  Internal
logic faults (a self-check of a construction that fails, a witness that
does not check) are raised as plain RuntimeError, never through assert,
so they still run under ``python -O``.  The CLI exits 2 on a HomcatError
and 3 on any other exception (RuntimeError, MemoryError, ...), printing
one line to stderr and no traceback.  Messages quote offending values
through ``quote``, so no message echoes a huge input back.
"""

# the longest quote of an offending value in an error message
_QUOTE_LIMIT = 60


def quote(value) -> str:
    """The repr of ``value`` for an error message, clipped to _QUOTE_LIMIT characters."""
    text = repr(value)
    return text if len(text) <= _QUOTE_LIMIT else text[: _QUOTE_LIMIT - 3] + "..."


class HomcatError(Exception):
    """Base class for all input errors raised by this package."""


class ShapeMismatchError(HomcatError):
    """Matrix or component dimensions do not conform."""


class FieldMismatchError(HomcatError):
    """Operands live over different coefficient fields."""


class InvalidComplexError(HomcatError):
    """A differential fails d(d(x)) = 0 where validity is required."""


class InvalidChainMapError(HomcatError):
    """A square that must commute (strictly or up to a witness) does not."""


class NotQuasiIsoError(HomcatError):
    """A map required to be a quasi-isomorphism is not one."""


class SessionSyntaxError(HomcatError):
    """A session file is not syntactically or structurally well formed."""


class UnknownReferenceError(HomcatError):
    """A session entry or command refers to a name that was never declared."""


class UsageError(HomcatError):
    """A CLI invocation has the wrong arguments for its command."""
