"""Exception types shared across the package."""

from __future__ import annotations


class EqvError(Exception):
    """Base class for every error this package raises on purpose."""


class ZeroDenominatorError(EqvError, ZeroDivisionError):
    """Division by an expression that normalizes to zero."""


class UnsupportedAtomError(EqvError, TypeError):
    """An operation was applied to an atom kind it does not support."""


class DegenerateTransformationError(EqvError, ValueError):
    """A point transformation violates a structural requirement."""


class SingularTransformationError(EqvError):
    """The linear system for the transformed derivatives is identically singular."""


class VariableMismatchError(EqvError, ValueError):
    """Variable names of two objects do not line up."""


class UnknownFamilyError(EqvError, KeyError):
    """Catalog lookup for a family name that does not exist."""


class TheoremPreconditionError(EqvError):
    """The transformation is not an equivalence transformation of the source family.

    The failing match report is attached as ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class EvaluationError(EqvError):
    """Numeric evaluation hit an atom or a value outside the evaluator's domain."""


class AssumptionViolationError(EvaluationError):
    """A non-vanishing assumption came out numerically too close to zero."""


class ParseError(EqvError):
    """Session-file syntax or declaration error, carrying the source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
