"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A configuration value (edition, ratio, resample count, ...) is invalid."""


class MassTableParseError(ValueError):
    """A mass-table line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class DataIntegrityError(ValueError):
    """Input data violates an integrity requirement (e.g. duplicate nuclides)."""


class IncompleteDataError(LookupError):
    """A result table is missing cells required for an aggregation."""

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(f"missing result cells: {self.missing}")


class TrainingDivergedError(ArithmeticError):
    """Training produced a non-finite loss."""
