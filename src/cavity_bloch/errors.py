"""Exception types shared across the package."""


class CavityBlochError(Exception):
    """Base class for package errors."""


class DomainError(CavityBlochError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class StabilityError(CavityBlochError, ValueError):
    """A parameter set lies outside the stable window of the model."""


class NumericalError(CavityBlochError, RuntimeError):
    """A numerical routine failed to converge or produced invalid output."""


class ConfigError(CavityBlochError, ValueError):
    """One or more configuration violations; carries the full list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
