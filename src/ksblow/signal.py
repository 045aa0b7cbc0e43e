"""Truncated power-law signal production, its radial integrals and the
cutoff family regularizing the degenerate transport terms.

The production profile is

    f(r) = f0 * r**(-alpha)   for r <= R - rho,
    f(r) = 0                  for r >= R + rho,

bridged monotonically and C^2 in between by a quintic smoothstep, which
also shapes the cutoff chi_eps.  On the mass scale the accumulated forcing

    F(s) = integral_0^{s**(1/n)} f(r) r**(n-1) dr

is non-decreasing with F_s(s) = f(s**(1/n)) / n non-increasing, and has the
closed form f0/(n-alpha) * s**((n-alpha)/n) while the upper limit stays in
the pure power-law region.  Across the bridge one fixed 16-point Gauss-
Legendre rule per query point adds the rest: the integrand is analytic on an
interval whose endpoints have a ratio below 3 (rho < R/2) and is singular
only at 0, so the rule is exact to roundoff.

Breakpoint modes.  The substitution r = s**(1/n) puts the natural break-
points of F and F_s at (R-rho)**n and (R+rho)**n ("transformed" mode, the
default).  The "direct" mode instead places them literally at R-rho and
R+rho on the s axis, with the bridge built directly in s; lemma-verification
sweeps use it because the inner-branch estimates of the test-function
differential inequality are tied to those literal case labels, and with the
transformed breakpoints that inequality genuinely fails for admissible
parameter sets with small R-rho and larger n.  Since R - rho < 1 the two
modes differ; both are exposed and neither is silently mixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .params import SystemParams, validate
from .quadrature import gauss_legendre

_BRIDGE_GL_ORDER = 16


def smoothstep(x):
    """Quintic smoothstep S with S(0)=0, S(1)=1 and S'=S''=0 at both ends."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (6.0 * x - 15.0))


def chi_eval(epsilon: float, s):
    """Cutoff chi_eps(s) = S(2s/eps - 1): identically 0 on [0, eps/2] and 1 on
    [eps, infinity), at s (scalar or array)."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0):
        raise ParameterError("s must be >= 0 for the cutoff", [("s", s, ">= 0")])
    ramp = (s_arr > epsilon / 2.0) & (s_arr < epsilon)
    val = np.where(s_arr >= epsilon, 1.0,
                   np.where(ramp, smoothstep(2.0 * s_arr / epsilon - 1.0), 0.0))
    if np.isscalar(s) or s_arr.ndim == 0:
        return float(val)
    return val


@dataclass(frozen=True)
class SignalProfile:
    """Immutable signal-production profile: f on the radial axis, F and F_s
    on the mass axis.  Construction only validates the parameters."""

    f0: float
    alpha: float
    R: float
    rho: float
    n: int
    breakpoints: str = "transformed"

    def __post_init__(self):
        if self.breakpoints not in ("transformed", "direct"):
            raise ParameterError(f"unknown breakpoints mode {self.breakpoints!r}")
        validate(SystemParams(self.n, self.alpha, self.f0, self.R, self.rho, c0=1.0))

    @classmethod
    def from_params(cls, params: SystemParams):
        return cls(params.f0, params.alpha, params.R, params.rho, params.n)

    # --- profile on the radial axis -------------------------------------

    def f(self, r):
        """Signal production at radius r > 0."""
        scalar = np.ndim(r) == 0
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r_arr <= 0.0):
            raise ParameterError("r must be > 0", [("r", r, "> 0")])
        lo, hi = self.R - self.rho, self.R + self.rho
        out = np.zeros_like(r_arr)
        inner = r_arr <= lo
        mid = (r_arr > lo) & (r_arr < hi)
        out[inner] = self.f0 * r_arr[inner] ** (-self.alpha)
        if np.any(mid):
            rm = r_arr[mid]
            out[mid] = (self.f0 * rm ** (-self.alpha)
                        * smoothstep((hi - rm) / (2.0 * self.rho)))
        return float(out[0]) if scalar else out

    # --- breakpoints on the mass axis ------------------------------------

    @property
    def s_lower(self) -> float:
        lo = self.R - self.rho
        return lo ** self.n if self.breakpoints == "transformed" else lo

    @property
    def s_upper(self) -> float:
        hi = self.R + self.rho
        return hi ** self.n if self.breakpoints == "transformed" else hi

    @property
    def F_limit(self) -> float:
        """Constant value of F for s >= s_upper."""
        return self._closed(self.s_lower) + float(self._bridge_integral(self.s_upper))

    # --- F and F_s --------------------------------------------------------

    def _closed(self, s):
        return self.f0 / (self.n - self.alpha) * np.power(s, (self.n - self.alpha) / self.n)

    def _bridge_density(self, s):
        """dF/ds on the bridge segment in direct mode."""
        return (self.f0 / self.n) * np.power(s, -self.alpha / self.n) * smoothstep(
            (self.s_upper - s) / (self.s_upper - self.s_lower))

    def _bridge_integral(self, s):
        """F(s) - F(s_lower) for s_lower <= s <= s_upper, one fixed Gauss-
        Legendre rule per point: f(r) r**(n-1) in r over [R-rho, s**(1/n)]
        in transformed mode, the bridge density in s over [R-rho, s] in
        direct mode."""
        lo = self.R - self.rho
        if self.breakpoints == "transformed":
            r, w = gauss_legendre(lo, np.power(s, 1.0 / self.n), _BRIDGE_GL_ORDER)
            values = self.f(r) * r ** (self.n - 1)
        else:
            x, w = gauss_legendre(lo, s, _BRIDGE_GL_ORDER)
            values = self._bridge_density(x)
        return np.sum(values * w, axis=-1)

    def F(self, s):
        """Accumulated forcing F(s): closed form up to s_lower, plus the
        bridge rule up to s_upper, constant F_limit beyond; exact to
        roundoff."""
        scalar = np.ndim(s) == 0
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s_arr < 0.0):
            raise ParameterError("s must be >= 0", [("s", s, ">= 0")])
        out = np.empty_like(s_arr)
        lo, hi = self.s_lower, self.s_upper
        inner = s_arr <= lo
        outer = s_arr >= hi
        mid = ~inner & ~outer
        out[inner] = self._closed(s_arr[inner])
        out[outer] = self.F_limit
        if np.any(mid):
            out[mid] = self._closed(lo) + self._bridge_integral(s_arr[mid])
        return float(out[0]) if scalar else out

    def F_s(self, s):
        """dF/ds; equals f(s**(1/n))/n in transformed mode."""
        scalar = np.ndim(s) == 0
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s_arr <= 0.0):
            raise ParameterError("s must be > 0", [("s", s, "> 0")])
        if self.breakpoints == "transformed":
            out = np.atleast_1d(self.f(np.power(s_arr, 1.0 / self.n))) / self.n
        else:
            out = np.zeros_like(s_arr)
            inner = s_arr <= self.s_lower
            mid = (s_arr > self.s_lower) & (s_arr < self.s_upper)
            out[inner] = (self.f0 / self.n) * s_arr[inner] ** (-self.alpha / self.n)
            if np.any(mid):
                out[mid] = self._bridge_density(s_arr[mid])
        return float(out[0]) if scalar else out
