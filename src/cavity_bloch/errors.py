"""Exception types shared across the package."""

from contextlib import contextmanager


class CavityBlochError(Exception):
    """Base class for package errors."""


class DomainError(CavityBlochError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class StabilityError(CavityBlochError, ValueError):
    """A parameter set lies outside the stable window of the model."""


class NumericalError(CavityBlochError, RuntimeError):
    """A numerical routine failed to converge or produced invalid output."""


@contextmanager
def derived(quantity, inputs):
    """Run a block that derives `quantity` from `inputs` ({"name[unit]": value});
    an ArithmeticError raised in it, an overflow or a division by a product
    that underflowed to zero, is raised as a NumericalError naming both."""
    try:
        yield
    except ArithmeticError as exc:
        given = ", ".join(f"{name} = {value:g}" for name, value in inputs.items())
        raise NumericalError(f"{quantity} leaves float64 at {given}") from exc


class ConfigError(CavityBlochError, ValueError):
    """One or more configuration violations; carries the full list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
