"""Exception hierarchy shared across the package."""


class KsblowError(Exception):
    """Base class for all package errors."""


class ParameterError(KsblowError, ValueError):
    """A model or configuration parameter violates its admissible range.

    ``violations`` holds (field, value, admissible-range) triples, one per
    violated invariant.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class NumericalError(KsblowError, RuntimeError):
    """A numerical routine was evaluated outside its domain.  Carries
    diagnostic attributes where the caller can act on them (e.g.
    ``blow_up_time`` for Riccati evaluation)."""

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        for key, value in diagnostics.items():
            setattr(self, key, value)


class SolverError(KsblowError, RuntimeError):
    """Time stepping failed (step-size underflow, invariant violation).

    ``location`` is an (s, t) pair when the failure is tied to a grid point.
    """

    def __init__(self, message, location=None, **diagnostics):
        super().__init__(message)
        self.location = location
        for key, value in diagnostics.items():
            setattr(self, key, value)


class SelectionError(KsblowError, RuntimeError):
    """The blow-up parameter search exhausted its budget; ``failing`` names
    the inequality that could not be satisfied."""

    def __init__(self, message, failing=None, **diagnostics):
        super().__init__(message)
        self.failing = failing
        for key, value in diagnostics.items():
            setattr(self, key, value)


class ConfigError(KsblowError, ValueError):
    """A run configuration document is malformed (missing, extra or
    ill-typed keys)."""
