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
cut-offs |x| = R -+ rho sit at s_lower = (R-rho)**n and s_upper = (R+rho)**n;
``SignalProfile.forcing`` gives F and F_s in closed form up to s_lower and
by a fixed Gauss-Legendre rule across the bridge.  The integrand is analytic
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

import functools
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import ParameterError
from .params import SystemParams, validate
from .quadrature import legendre_rule

_BRIDGE_GL_ORDER = 16
_BRIDGE_COLUMNS = 512  # bridge points per rule block: 3 blocks of (17, 512) floats


def _bridge(n, b, lo, hi, two_rho, f0, alpha):
    """The Gauss-Legendre rule for f(r) r**(n-1) over [lo, b], and f(b), at
    the radii b; the other parameters are floats or match b.

    The rule runs along the first axis: node j of point i is r[j, i], and the
    last row is b itself.  f is formed without the clip and the branch of
    ``SignalProfile.f``: the nodes lie strictly inside (lo, hi), and so does
    b but for rounding, which moves f(b) by a few ulps of f(lo) at most.  The
    three blocks are reused in place, in the order of operations of
    f0 r**-alpha S(x) r**(n-1) w with the smoothstep S(x) = x^3 (10 + x (6x - 15))
    of x = (hi - r)/(2 rho)."""
    nodes, weights = legendre_rule(_BRIDGE_GL_ORDER)
    half = 0.5 * (b - lo)
    r, x, f = (np.empty((nodes.size + 1, b.size)) for _ in range(3))

    def radii(out):
        np.multiply(half, nodes[:, None], out=out[:-1])
        out[:-1] += 0.5 * (lo + b)
        out[-1] = b
        return out

    np.subtract(hi, radii(r), out=x)
    x /= two_rho
    np.multiply(x, x, out=f)
    f *= x
    np.multiply(x, 6.0, out=r)
    r -= 15.0
    r *= x
    r += 10.0
    f *= r
    np.power(radii(r), -alpha, out=x)
    x *= f0
    f *= x
    r **= n - 1
    f[:-1] *= r[:-1]
    f[:-1] *= weights[:, None]
    for row in f[1:-1]:  # in row order: numpy.sum adds a one-column block pairwise
        f[0] += row
    return half * f[0], f[-1]


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


def _mass(r, n):
    """r**n by Python's float power, also for each entry of an array: numpy's
    power rounds some of them differently, and a profile of columns must
    give each row the bits of its own profile."""
    if np.ndim(r) == 0:
        return r ** n
    return np.array([x ** n for x in r.ravel().tolist()]).reshape(r.shape)


@dataclass(frozen=True)
class SignalProfile:
    """Immutable signal-production profile: f on the radial axis, F and F_s
    on the mass axis.  Construction validates the parameters, unless
    ``checked`` says that ``validate`` or ``validate_testfn`` already has.
    f0, alpha, R and rho are floats, or (k, 1) columns of them for k
    profiles at once, one per row of the points (as
    ``analysis.verify_ode_inequality`` builds them); n is one int."""

    f0: float
    alpha: float
    R: float
    rho: float
    n: int
    checked: InitVar[bool] = False

    def __post_init__(self, checked):
        if not checked:
            validate(SystemParams(self.n, self.alpha, self.f0, self.R, self.rho, c0=1.0))

    @classmethod
    def from_params(cls, params: SystemParams):
        """The profile of ``params``, which ``validate`` has passed."""
        return cls(params.f0, params.alpha, params.R, params.rho, params.n, checked=True)

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

    @functools.cached_property
    def s_lower(self):
        return _mass(self.R - self.rho, self.n)

    @functools.cached_property
    def s_upper(self):
        return _mass(self.R + self.rho, self.n)

    # --- F and F_s --------------------------------------------------------

    def forcing(self, s):
        """(F(s), F_s(s)) at s >= 0 from one evaluation, exact to roundoff.

        Up to s_lower one power p = s**((n-alpha)/n) gives both, the closed
        form F = f0/(n-alpha) p and F_s = (f0/n) p/s (nan at s = 0, where
        F_s is unbounded).  On the bridge one root b = s**(1/n) is both the
        upper limit of the Gauss-Legendre rule for f(r) r**(n-1) over
        [R-rho, b], added to F(s_lower), and the radius of F_s = f(b)/n.
        From s_upper on F is the rule at s_upper and F_s is 0.  Parameters
        that are columns give each row of s its own profile.
        """
        scalar = np.ndim(s) == 0
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s_arr < 0.0):
            raise ParameterError("s must be >= 0", [("s", s, ">= 0")])
        n, alpha, f0 = self.n, self.alpha, self.f0
        # the closed form at every point; the bridge and beyond overwrite it
        F = np.power(s_arr, (n - alpha) / n)
        with np.errstate(divide="ignore", invalid="ignore"):
            Fs = f0 / n * F
            Fs /= s_arr
        F *= f0 / (n - alpha)
        beyond = s_arr > self.s_lower
        if not beyond.any():
            return (float(F[0]), float(Fs[0])) if scalar else (F, Fs)
        outer = s_arr >= self.s_upper
        mid = beyond & ~outer
        k = np.count_nonzero(mid)

        def rule(v):
            """v at the bridge points, then once per profile at s_upper; a
            float stays a float"""
            return np.append(np.broadcast_to(v, s_arr.shape)[mid], v) if np.ndim(v) else v

        # the bridge points and s_upper, which gives the constant, in one rule
        b = np.power(np.append(s_arr[mid], self.s_upper), 1.0 / n)
        args = [rule(v) for v in (self.R - self.rho, self.R + self.rho, 2.0 * self.rho, f0, alpha)]
        bridge, fb = np.empty_like(b), np.empty_like(b)
        for i in range(0, b.size, _BRIDGE_COLUMNS):
            cols = slice(i, i + _BRIDGE_COLUMNS)
            bridge[cols], fb[cols] = _bridge(n, b[cols], *(v[cols] if np.ndim(v) else v
                                                           for v in args))
        bridge += rule(f0 / (n - alpha) * np.power(self.s_lower, (n - alpha) / n))
        F[mid] = bridge[:k]
        F[outer] = np.broadcast_to(bridge[k:].reshape(np.shape(self.s_upper)), s_arr.shape)[outer]
        Fs[mid] = fb[:k] / n
        Fs[outer] = 0.0
        if scalar:
            return float(F[0]), float(Fs[0])
        return F, Fs

    def F(self, s):
        """Accumulated forcing F(s) at s >= 0: the first part of ``forcing``."""
        return self.forcing(s)[0]
