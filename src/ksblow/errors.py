"""Exception hierarchy shared across the package."""


class KsblowError(Exception):
    """Base class for all package errors."""


class ParameterError(KsblowError, ValueError):
    """A model or configuration parameter violates its admissible range, or
    a function is evaluated outside its domain.

    ``violations`` holds (field, value, admissible-range) triples, one per
    violated invariant.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class SolverError(KsblowError, RuntimeError):
    """Time stepping failed (step-size underflow, invariant violation).

    ``location`` is an (s, t) pair when the failure is tied to a grid point.
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class SelectionError(KsblowError, RuntimeError):
    """The blow-up parameter search exhausted its budget; ``failing`` names
    the inequality that could not be satisfied."""

    def __init__(self, message, failing=None):
        super().__init__(message)
        self.failing = failing


class ConfigError(KsblowError, ValueError):
    """A run configuration document is malformed (missing, extra or
    ill-typed keys)."""
