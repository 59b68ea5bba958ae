"""Exception types shared across the library."""


class TverlabError(Exception):
    pass


class DimensionMismatch(TverlabError):
    pass


class Degenerate(TverlabError):
    """The input violates the genericity an operation relies on.

    Raised instead of silently picking a side whenever an exact membership
    test lands on a boundary, or a classification fits no expected shape.
    """


class NoUniquePoint(TverlabError):
    """Affine-hull system is infeasible or underdetermined."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason  # "infeasible" | "underdetermined"


class InvalidParameters(TverlabError):
    pass


class LabelMismatch(TverlabError):
    pass


class NotPrimePower(TverlabError):
    pass


class LabelCollision(TverlabError):
    pass


class LabelFormat(TverlabError):
    pass


class BudgetExceeded(TverlabError):
    pass


class UnsupportedDimension(TverlabError):
    pass


class ParseError(TverlabError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
