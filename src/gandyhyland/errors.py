"""Error taxonomy shared by every layer of the package.

Each exception carries a human-readable message; ParseError (with its
ArityError) also carries the parse position as fields that callers
inspect. The CLI maps these onto process exit codes, see
gandyhyland.cli.main.
"""

from __future__ import annotations


class GandyHylandError(Exception):
    """Base class for every error raised by this package."""


class IndexOutOfRange(GandyHylandError):
    """Finite sequence indexed or truncated past its length."""


class FuelExhausted(GandyHylandError):
    """A bounded search ran out of its step budget.

    The message names the search that gave up; partiality is always
    surfaced this way rather than by looping forever.
    """


class DepthExceeded(GandyHylandError):
    """A verification needed more recursion depth than the configured cap."""


class StabilizationFailed(GandyHylandError):
    """No stable window of depth-bounded values found below the depth cap."""


class OutOfTableQuery(GandyHylandError):
    """A replay run asked for an oracle answer the recorded trace lacks."""


class BoundExceeded(GandyHylandError):
    """A recursively computed value exceeded its promised pointwise bound."""


class InvariantViolation(GandyHylandError):
    """An internal consistency check failed; indicates a bug or a bad input."""


class ParseError(GandyHylandError):
    """Expression text rejected by the grammar.

    line and column are 1-based; offset is the 0-based character index.
    """

    def __init__(self, message: str, offset: int, text: str = ""):
        self.offset = offset
        self.line = 1 + text.count("\n", 0, offset)
        last_nl = text.rfind("\n", 0, offset)
        self.column = offset - last_nl  # 1-based since last_nl is -1 or index
        super().__init__(f"{message} (line {self.line}, column {self.column})")


class ArityError(ParseError):
    """A grammar head applied to the wrong number of arguments."""


class IoError(GandyHylandError):
    """File input or output failed while reading or writing results."""
