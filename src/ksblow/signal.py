"""Truncated power-law signal production, its radial integrals and the
cutoff family regularizing the degenerate transport terms.

The production profile is

    f(r) = f0 * r**(-alpha)   for r <= R - rho,
    f(r) = 0                  for r >= R + rho,

bridged monotonically and C^2 in between by a quintic smoothstep, which
also shapes the cutoff chi_eps.  On the mass scale s = r**n the accumulated
forcing

    F(s) = integral_0^{s**(1/n)} f(r) r**(n-1) dr

is non-decreasing with F_s(s) = f(s**(1/n)) / n non-increasing.  The radial
cut-offs |x| = R -+ rho sit at s_lower = (R-rho)**n and s_upper = (R+rho)**n,
so F is the closed form f0/(n-alpha) * s**((n-alpha)/n) up to s_lower and
constant from s_upper on.  Across the bridge one fixed 16-point
Gauss-Legendre rule per query point adds the rest: the integrand is analytic
on an interval whose endpoints have a ratio below 3 (rho < R/2) and is
singular only at 0, so the rule is exact to roundoff.

This is the one profile: every solve marches it, and the test-function
inequality is certified against it.  The literal case labels R -+ rho on
the s axis are not the image of |x| = R -+ rho on the mass axis.  Measured,
not proved: on this profile the inequality fails for some admissible tuples
with small R - rho and larger n, and in a seeded random scan every failing
tuple had its branch point xi/gamma above s_lower.
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

    def __post_init__(self):
        validate(SystemParams(self.n, self.alpha, self.f0, self.R, self.rho, c0=1.0))

    @classmethod
    def from_params(cls, params: SystemParams):
        return cls(params.f0, params.alpha, params.R, params.rho, params.n)

    # --- profile on the radial axis -------------------------------------

    def f(self, r):
        """Signal production at radius r > 0: the power law times a factor
        that is 1 up to R - rho, the smoothstep across the bridge and 0 from
        R + rho on."""
        scalar = np.ndim(r) == 0
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r_arr <= 0.0):
            raise ParameterError("r must be > 0", [("r", r, "> 0")])
        lo, hi = self.R - self.rho, self.R + self.rho
        # the smoothstep rounds to 1 only a few ulps below R - rho
        ramp = np.where(r_arr <= lo, 1.0, smoothstep((hi - r_arr) / (2.0 * self.rho)))
        out = self.f0 * r_arr ** (-self.alpha) * ramp
        return float(out[0]) if scalar else out

    # --- the radial cut-offs on the mass axis ------------------------------

    @property
    def s_lower(self) -> float:
        return (self.R - self.rho) ** self.n

    @property
    def s_upper(self) -> float:
        return (self.R + self.rho) ** self.n

    # --- F and F_s --------------------------------------------------------

    def _closed(self, s):
        return self.f0 / (self.n - self.alpha) * np.power(s, (self.n - self.alpha) / self.n)

    def _bridge_integral(self, s):
        """F(s) - F(s_lower) for s_lower <= s <= s_upper: one fixed Gauss-
        Legendre rule per point for f(r) r**(n-1) over [R-rho, s**(1/n)]."""
        r, w = gauss_legendre(self.R - self.rho, np.power(s, 1.0 / self.n), _BRIDGE_GL_ORDER)
        return np.sum(self.f(r) * r ** (self.n - 1) * w, axis=-1)

    def F(self, s):
        """Accumulated forcing F(s): closed form up to s_lower, plus the
        bridge rule up to s_upper, constant beyond; exact to roundoff."""
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
        if not np.all(inner):
            # the bridge points and s_upper, which gives the constant, in one rule
            bridge = self._closed(lo) + self._bridge_integral(np.append(s_arr[mid], hi))
            out[mid] = bridge[:-1]
            out[outer] = bridge[-1]
        return float(out[0]) if scalar else out

    def F_s(self, s):
        """dF/ds = f(s**(1/n))/n: the power law (f0/n) s**(-alpha/n) up to
        s_lower, f(s**(1/n))/n on the bridge and 0 from s_upper on."""
        scalar = np.ndim(s) == 0
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s_arr <= 0.0):
            raise ParameterError("s must be > 0", [("s", s, "> 0")])
        out = np.zeros_like(s_arr)
        inner = s_arr <= self.s_lower
        mid = (s_arr > self.s_lower) & (s_arr < self.s_upper)
        out[inner] = (self.f0 / self.n) * s_arr[inner] ** (-self.alpha / self.n)
        if np.any(mid):
            out[mid] = self.f(np.power(s_arr[mid], 1.0 / self.n)) / self.n
        return float(out[0]) if scalar else out
