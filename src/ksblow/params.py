"""Model parameters and the feasibility algebra of the singular-forcing
scenario.

A scenario couples the space dimension n >= 3, the forcing exponent
alpha in (2, n), the forcing amplitude f0 > 0, the support geometry
(R, rho) of the truncated power law f0 * r**(-alpha), and the plateau
height c0 of the initial cell density on the closed unit ball.  The
blow-up construction applies exactly when

    f0 > (2n/alpha) (n-2) (n-alpha),

and the admissible decay exponents delta of the comparison test
functions are the values below one and above ``delta_lower_bound``,
whose second argument is the larger root of

    n^2 d^2 + (n f0/(n-alpha) - 3 n^2 + 4 n) d - f0 = 0.

Strict inequalities are enforced strictly, with no epsilon padding:
callers wanting margins add them explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError


def _require(cond, field, value, admissible, violations):
    if not cond:
        violations.append((field, value, admissible))


def _raise_if(violations):
    if violations:
        msg = "; ".join(
            f"{field} must be {admissible} (got {value!r})"
            for field, value, admissible in violations
        )
        raise ParameterError(msg, violations)


def _n_alpha_violations(n, alpha) -> list:
    if not (float(n).is_integer() and n >= 3):
        return [("n", n, "an integer >= 3")]
    violations = []
    # the discriminant in delta_lower_bound grows like n^4
    _require(math.isfinite(float(n) * n * n * n), "n", n,
             "small enough that n^4 is a finite double", violations)
    _require(alpha > 2, "alpha", alpha, "> 2 (alpha must exceed 2)", violations)
    _require(alpha < n, "alpha", alpha, f"< n = {n}", violations)
    return violations


def f0_threshold(n: int, alpha: float) -> float:
    """Critical forcing amplitude (2n/alpha)(n-2)(n-alpha)."""
    _raise_if(_n_alpha_violations(n, alpha))
    return 2.0 * n / alpha * (n - 2.0) * (n - alpha)


def h_value(n: int, alpha: float, f0: float) -> float:
    """The affine combination (n-alpha)(3n-4) - f0."""
    _raise_if(_n_alpha_violations(n, alpha))
    _raise_if([] if f0 > 0 else [("f0", f0, "> 0")])
    return (n - alpha) * (3.0 * n - 4.0) - f0


def delta_quadratic(n: int, alpha: float, f0: float, delta) -> float:
    """Evaluate n^2 d^2 + (n f0/(n-alpha) - 3n^2 + 4n) d - f0 at d = delta.

    The test-function constant c2 is this value times xi**(-2/n); positivity
    of the quadratic is the sharp admissibility condition on delta.
    """
    return n * n * delta * delta + (n * f0 / (n - alpha) - 3.0 * n * n + 4.0 * n) * delta - f0


def delta_lower_bound(n: int, alpha: float, f0: float) -> float:
    """Infimum of admissible test-function exponents delta.

    Returns max{(n-alpha)/n, (h + sqrt(h^2 + 4 f0 (n-alpha)^2)) / (2n(n-alpha))},
    h = h_value(n, alpha, f0).  The second argument is the larger root of the
    quadratic in :func:`delta_quadratic`; both arguments are always evaluated,
    neither is assumed to dominate.  The returned value is < 1 exactly when
    f0 > f0_threshold(n, alpha).
    """
    h = h_value(n, alpha, f0)
    root = (h + math.sqrt(h * h + 4.0 * f0 * (n - alpha) ** 2)) / (2.0 * n * (n - alpha))
    return max((n - alpha) / n, root)


@dataclass(frozen=True)
class SystemParams:
    """Scenario parameters: plateau initial data c0 on the unit ball driven
    by the truncated power-law signal production.

    Immutable; derived quantities (threshold, feasibility, delta bound) are
    properties so a validated instance is self-describing.
    """

    n: int
    alpha: float
    f0: float
    R: float
    rho: float
    c0: float

    @property
    def threshold(self) -> float:
        return f0_threshold(self.n, self.alpha)

    @property
    def feasible(self) -> bool:
        return self.f0 > self.threshold

    @property
    def delta_bound(self) -> float:
        return delta_lower_bound(self.n, self.alpha, self.f0)


def validate(params: SystemParams) -> SystemParams:
    """Run every invariant check; return the (annotated, immutable) params.

    Feasibility is a flag, not a validity error: infeasible but well-formed
    parameters validate fine and report ``feasible == False``.  f0 = 0 is
    admitted as the zero-forcing null case (useful for pure-transport solver
    checks); it is of course infeasible.
    """
    violations = _n_alpha_violations(params.n, params.alpha)
    _require(params.f0 >= 0, "f0", params.f0, ">= 0", violations)
    _require(0 < params.R < 1, "R", params.R, "in (0, 1)", violations)
    if 0 < params.R < 1:
        _require(0 < params.rho < params.R / 2, "rho", params.rho,
                 "in (0, R/2) (rho must be < R/2)", violations)
    _require(params.c0 > 0, "c0", params.c0, "> 0", violations)
    _raise_if(violations)
    return params


def validate_testfn(system: SystemParams, xi: float, delta: float, gamma: float) -> None:
    """Check the system, then the test-function exponents against it:
    xi in (4 - 4/n, 4], delta in (delta_lower_bound, 1), gamma > 4/(R - rho)
    and (R - rho) * gamma > xi."""
    system = validate(system)
    violations = []
    n = system.n
    _require(4.0 - 4.0 / n < xi <= 4.0, "xi", xi,
             f"in (4 - 4/n, 4] = ({4.0 - 4.0 / n}, 4]", violations)
    bound = system.delta_bound
    _require(0 < delta < 1, "delta", delta, "in (0, 1)", violations)
    if 0 < delta < 1:
        _require(delta > bound, "delta", delta, f"> delta_lower_bound = {bound}", violations)
    floor = 4.0 / (system.R - system.rho)
    _require(gamma > floor, "gamma", gamma, f"> 4/(R-rho) = {floor}", violations)
    _require((system.R - system.rho) * gamma > xi, "gamma", gamma,
             f"such that (R-rho)*gamma > xi = {xi}", violations)
    _raise_if(violations)


def default_delta(system: SystemParams) -> float:
    """The midpoint of delta's admissible range (delta_lower_bound, 1).
    Requires a feasible system (otherwise no sub-unit delta exists)."""
    system = validate(system)
    bound = system.delta_bound
    if bound >= 1.0:
        raise ParameterError(
            f"no admissible delta: delta_lower_bound = {bound} >= 1 "
            f"(f0 = {system.f0} is not above the threshold {system.threshold})",
            [("f0", system.f0, f"> {system.threshold}")],
        )
    return 0.5 * (bound + 1.0)
