"""Exception hierarchy shared by the whole package.

Every error raised deliberately by this package derives from
:class:`ToolkitError`, so callers (and the CLI) can distinguish domain
errors from genuine bugs.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ToolkitError):
    """Syntax error in a scalar / polynomial / element literal.

    ``position`` is the byte offset into the input at which parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ZeroDenominatorError(ParseError):
    """A rational literal with denominator 0."""


class NonInvertibleError(ToolkitError):
    """Negative power of zero."""


class DivisionByZeroError(ToolkitError):
    """Exact division by the zero scalar."""


class ZeroPolynomialError(ToolkitError):
    """Degree or leading coefficient requested of the zero polynomial."""


class DegreeOverflowError(ToolkitError):
    """A polynomial exceeded the constant degree cap, or a vectorization
    window; callers must discard the offending value, never truncate it."""


class KindMismatchError(ToolkitError):
    """Operands belong to different algebras, or a symbol/module pairing
    is invalid."""


class ExcludedSymbolError(ToolkitError):
    """Use of a basis symbol that the selected algebra excludes."""


class NegativeSecondIndexError(ExcludedSymbolError):
    """Second index of a Block-type symbol must be a nonnegative integer."""


class TruncationRangeError(ExcludedSymbolError):
    """Second index outside the [k, l] range of a truncated Block algebra."""


class DimensionMismatchError(ToolkitError):
    """Vector length does not match the span's column dimension."""


class DegreeMismatchError(ToolkitError):
    """An action-table entry has the wrong degree for any rank-one free
    module in the supported families."""


class InconsistentEntryError(ToolkitError):
    """An action table has the wrong shape (a field of the wrong type), or
    misses entries that parameter derivation requires."""


class NotInSubmoduleError(ToolkitError):
    """Polynomial with nonzero constant term passed where a multiple of t
    is required."""


class MaxRoundsExceededError(ToolkitError):
    """Span closure failed to stabilize within the round budget (guards
    against bugs; mathematically the rank bound forces termination)."""
