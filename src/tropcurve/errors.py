"""Exception types shared across the package."""

from __future__ import annotations


class TropError(Exception):
    """Base class for all domain errors raised by this package."""


class InternalError(TropError):
    """A check of the program's own results failed: a defect, not bad input."""


class FileFormatError(TropError):
    """A file could not be parsed; carries position info when known."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
            message = message + where
        super().__init__(message)


class NonTransversalError(TropError):
    """Two plane complexes meet non-transversally; names the point and the failed condition."""

    def __init__(self, point, condition: int, message: str):
        self.point = tuple(point)
        self.condition = condition
        super().__init__(f"non-transversal intersection at {format_point(point)}: condition ({condition}) fails: {message}")


def format_point(point) -> str:
    return "(" + ", ".join(str(c) for c in point) + ")"
