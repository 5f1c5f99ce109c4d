"""Exception types shared across the package."""


class CavityBlochError(Exception):
    """Base class for package errors."""


class DomainError(CavityBlochError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class StabilityError(CavityBlochError, ValueError):
    """A parameter set lies outside the stable window of the model."""


class NumericalError(CavityBlochError, RuntimeError):
    """A numerical routine failed to converge or produced invalid output."""


class StackSolveError(NumericalError):
    """Some matrices of a stack failed to solve; the others did.

    `values` holds the eigenvalues of every matrix, flattened to one row per
    matrix, with NaN rows for the failed ones; `failures` maps the row index
    of each failed matrix to its message.
    """

    def __init__(self, values, failures):
        self.values = values
        self.failures = dict(failures)
        first = next(iter(self.failures.values()))
        super().__init__(f"{len(self.failures)} of {len(values)} matrices failed, first: {first}")


class ConfigError(CavityBlochError, ValueError):
    """One or more configuration violations; carries the full list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
