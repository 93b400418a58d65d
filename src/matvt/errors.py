"""Exception types shared across the package."""


class MatvtError(Exception):
    """Base class for all package errors."""


class DataFormatError(MatvtError):
    """Malformed input file (bad header, ragged row, non-numeric cell)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EstimationError(MatvtError):
    """A fit could not be carried out (bad preconditions, invalid input)."""


class SingularUpdateError(EstimationError):
    """A fitted scatter-matrix update is not positive definite."""
