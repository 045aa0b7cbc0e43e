"""Weak-formulation residual of the mass-function equation against smooth
compactly supported space-time test fields.

A trajectory W approximately satisfies, for every smooth zeta(s, t) of
compact support in [0, infinity) x [0, infinity),

    - int int zeta_t W - int zeta(.,0) W0
        = n^2 int int (s^((2n-2)/n) zeta)_ss W
          - 1/2 int int zeta_s W^2
          - n int int (F zeta)_s W .

The residual is the absolute mismatch of the two sides with every integral
evaluated by composite Gauss-Legendre panels over the trajectory's mesh
cells and snapshot intervals, applied to the closed-form field factors times
the bilinear interpolant of W (linear in s on each cell, linear in t between
snapshots).  Because W is linear in t between snapshots, each double
integral is a sum over snapshots of a time weight times a space integral of
that snapshot (the W^2 term adds the products of neighbouring snapshots), so
the interpolant is never formed on the (time x space) grid of quadrature
points, and the snapshots are interpolated onto the space points one at a
time: memory is O(K + P + Q) for K snapshots, P space points and Q time
points, not O(K P) or O(Q P).  A residual at or below ROUNDOFF_FLOOR times
its largest term is roundoff.

The library fields are tensor products of polynomial windows: the space
factor is the C^7 bump (1 - x^2)^8 and the time factor either that bump or a
C^3 septic-smoothstep step-down that equals one at t = 0 (so the
initial-data term is exercised).  Polynomial factors are what make the
composite quadrature exact for them (Gauss-Legendre of order 12 integrates
the degree <= 18 products against the piecewise-linear interpolant without
error), so structural cancellations -- a field supported where W sits at its
far-field constant -- survive at roundoff level instead of drowning in
quadrature noise; an exponential-type bump would leak ~1e-6 through its
steep edge layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .quadrature import gauss_legendre
from .signal import SignalProfile
from .solver import Trajectory

_GL_ORDER = 12
_MAX_PANEL_FRACTION = 1.0 / 8.0
_BUMP_POWER = 8
# the constant_state field's time window, short enough that W stays at its
# far-field constant on the field's support
_CONSTANT_WINDOW = 5e-4
# a residual at or below this fraction of its largest term is roundoff
ROUNDOFF_FLOOR = 1e-12


@dataclass(frozen=True)
class BumpFactor:
    """Polynomial bump (1 - x^2)^8 scaled to (lo, hi); zero outside, C^7."""

    lo: float
    hi: float

    def _parts(self, v):
        """x scaled to (-1, 1), 1 - x^2 inside and 0 outside, and dx/dv."""
        x = (2.0 * np.asarray(v, dtype=float) - (self.hi + self.lo)) / (self.hi - self.lo)
        return x, np.where(np.abs(x) < 1.0, 1.0 - x * x, 0.0), 2.0 / (self.hi - self.lo)

    def value(self, v):
        return self._parts(v)[1] ** _BUMP_POWER

    def d1(self, v):
        x, one, m = self._parts(v)
        return -2.0 * _BUMP_POWER * x * one ** (_BUMP_POWER - 1) * m

    def d2(self, v):
        x, one, m = self._parts(v)
        k = _BUMP_POWER
        val = (-2.0 * k * one ** (k - 1)
               + 4.0 * k * (k - 1) * x * x * one ** (k - 2))
        return val * m * m

    @property
    def support(self):
        return (self.lo, self.hi)


def _septic(u):
    """Septic smoothstep: 0 -> 1 on [0, 1] with three vanishing derivatives
    at both ends."""
    u = np.clip(u, 0.0, 1.0)
    return u ** 4 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))


def _septic_d1(u):
    u = np.clip(u, 0.0, 1.0)
    return u ** 3 * (140.0 + u * (-420.0 + u * (420.0 - 140.0 * u)))


@dataclass(frozen=True)
class StepDownFactor:
    """Equals 1 on [0, hi - width], descends along a septic smoothstep
    (polynomial, C^3) to 0 at hi."""

    hi: float
    width: float

    def value(self, t):
        t = np.asarray(t, dtype=float)
        u = (self.hi - t) / self.width
        return np.where(t <= self.hi - self.width, 1.0,
                        np.where(t >= self.hi, 0.0, _septic(u)))

    def d1(self, t):
        t = np.asarray(t, dtype=float)
        u = (self.hi - t) / self.width
        ramp = (t > self.hi - self.width) & (t < self.hi)
        return np.where(ramp, -_septic_d1(u) / self.width, 0.0)

    @property
    def support(self):
        return (0.0, self.hi)


@dataclass(frozen=True)
class TestField:
    """Tensor-product field zeta(s, t) = g(s) * sigma(t) with closed-form
    derivatives."""

    __test__ = False  # not a pytest class despite the name

    name: str
    s_factor: BumpFactor
    t_factor: object  # BumpFactor or StepDownFactor


def field_library(s_max: float, t_end: float, epsilon: float = 0.0) -> dict:
    """The standard four test fields, scaled to the computed domain.

    ``origin_window`` keeps clear of the cutoff region [0, epsilon] so the
    regularized run satisfies the unregularized identity on its support.
    ``constant_state`` sits where W stays at its far-field constant over a
    short initial window, the structural-cancellation case.
    """
    lo_origin = max(4.0 * epsilon, 0.0125 * s_max)
    window = min(_CONSTANT_WINDOW, 0.25 * t_end)
    return {
        "interior": TestField("interior", BumpFactor(0.075 * s_max, 0.45 * s_max),
                              BumpFactor(0.25 * t_end, 0.85 * t_end)),
        "initial": TestField("initial", BumpFactor(0.125 * s_max, 0.625 * s_max),
                             StepDownFactor(hi=0.9 * t_end, width=0.4 * t_end)),
        "origin_window": TestField("origin_window",
                                   BumpFactor(lo_origin, 0.2 * s_max),
                                   StepDownFactor(hi=0.7 * t_end, width=0.3 * t_end)),
        "constant_state": TestField("constant_state",
                                    BumpFactor(0.6 * s_max, 0.9 * s_max),
                                    StepDownFactor(hi=window, width=0.5 * window)),
    }


def _panels(edges_raw, lo, hi, extra, max_width):
    """Sorted panel edges covering [lo, hi]: domain edges within the window,
    the window ends, ``extra`` internal breakpoints, wide panels subdivided."""
    pts = [lo, hi]
    pts.extend(float(e) for e in edges_raw if lo < e < hi)
    pts.extend(float(e) for e in extra if lo < e < hi)
    pts = _distinct_sorted(np.asarray(pts, dtype=float))
    out = []
    for a, b in zip(pts[:-1], pts[1:]):
        k = max(1, int(math.ceil((b - a) / max_width)))
        out.append(np.linspace(a, b, k + 1))
    return _distinct_sorted(np.concatenate(out))


def _distinct_sorted(x):
    """np.unique of a finite 1-d array, without the numpy.ma import that
    np.unique's first call pays."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


@dataclass(frozen=True)
class ResidualReport:
    field: str
    residual: float
    scale: float
    terms: dict

    @property
    def relative(self) -> float:
        return self.residual / self.scale

    @property
    def at_roundoff(self) -> bool:
        return self.residual <= ROUNDOFF_FLOOR * self.scale


def check_support(zeta: TestField, s_max: float, times) -> None:
    """Raise ParameterError unless the field's support lies in the computed
    space-time domain: [0, s_max] in s, and in t the first to the last of
    at least two snapshot times, which must include t = 0 when the field
    touches it."""
    times = np.asarray(times, dtype=float)
    s_lo, s_hi = zeta.s_factor.support
    t_lo, t_hi = zeta.t_factor.support
    if s_lo < 0.0 or s_hi > s_max:
        raise ParameterError(
            f"field {zeta.name!r} s-support ({s_lo}, {s_hi}) exceeds [0, {s_max}]")
    if times.size < 2:
        raise ParameterError(
            f"field {zeta.name!r} needs at least two snapshots (got {times.size})")
    first, last = times.min(), times.max()
    if t_lo < 0.0 or t_hi > last:
        raise ParameterError(
            f"field {zeta.name!r} t-support ({t_lo}, {t_hi}) exceeds [0, {last}]")
    if t_lo == 0.0 and first != 0.0:
        raise ParameterError("field touches t = 0 but the trajectory lacks that snapshot")
    if t_lo < first:
        raise ParameterError(f"field {zeta.name!r} t-support ({t_lo}, {t_hi}) starts "
                             f"before the first snapshot t = {first}")


def _rules(zeta: TestField, s_nodes, times) -> tuple:
    """Points and weights (sp, sw, tp, tw) of the composite Gauss-Legendre
    rules over the field's support: s panels split at the mesh nodes, t
    panels at the snapshot times and at a step-down's ramp start."""
    s_lo, s_hi = zeta.s_factor.support
    t_lo, t_hi = zeta.t_factor.support
    s_edges = _panels(s_nodes, s_lo, s_hi, extra=(),
                      max_width=(s_hi - s_lo) * _MAX_PANEL_FRACTION)
    t_extra = []
    if isinstance(zeta.t_factor, StepDownFactor):
        t_extra.append(zeta.t_factor.hi - zeta.t_factor.width)
    t_edges = _panels(times, t_lo, t_hi, extra=t_extra,
                      max_width=(t_hi - t_lo) * _MAX_PANEL_FRACTION)
    sp, sw = (x.ravel() for x in gauss_legendre(s_edges[:-1], s_edges[1:], _GL_ORDER))
    tp, tw = (x.ravel() for x in gauss_legendre(t_edges[:-1], t_edges[1:], _GL_ORDER))
    return sp, sw, tp, tw


def _space_sums(traj: Trajectory, zeta: TestField, profile: SignalProfile, sp, sw):
    """The space sums of each snapshot w_k, interpolated onto the s-points
    one at a time: w_k against the s-kernels g, (s^p g)_ss and (F g)_s of
    the time, diffusion and forcing terms as a (3, K) block, and the K sums
    of g_s w_k^2 and the K - 1 sums of g_s w_k w_{k+1} of the advection
    term, all with the s-weights.  The kernel rows are filled one at a time,
    the second derivative's first, so that few P-arrays are alive together."""
    p = (2.0 * traj.n - 2.0) / traj.n
    kernels = np.empty((4, sp.size))
    g, diff, forcing, g1 = kernels
    diff[:] = zeta.s_factor.d2(sp)
    g[:] = zeta.s_factor.value(sp)
    g1[:] = zeta.s_factor.d1(sp)
    diff *= np.power(sp, p)
    diff += p * (p - 1.0) * np.power(sp, p - 2.0) * g + 2.0 * p * np.power(sp, p - 1.0) * g1
    F, Fs = profile.forcing(sp)
    forcing[:] = Fs * g + F * g1
    for row in kernels:
        row *= sw  # row by row: an in-place broadcast would allocate the block again

    k_snaps = len(traj.snapshots)
    sums = np.empty((3, k_snaps))
    square = np.empty(k_snaps)
    cross = np.empty(k_snaps - 1)
    for k, snapshot in enumerate(traj.snapshots):
        w = np.interp(sp, traj.s, snapshot)
        sums[:, k] = kernels[:3] @ w
        vw = g1 * w
        square[k] = vw @ w
        if k:
            cross[k - 1] = vw @ w_prev
        w_prev = w
    return sums, square, cross


def weak_residual(traj: Trajectory, zeta: TestField,
                  profile: SignalProfile) -> ResidualReport:
    """Residual of the weak identity for one test field; raises as
    ``check_support`` does when the field leaves the computed domain."""
    s_nodes = traj.s
    times = np.asarray(traj.times, dtype=float)
    check_support(zeta, float(s_nodes[-1]), times)
    sp, sw, tp, tw = _rules(zeta, s_nodes, times)
    sums, square, cross = _space_sums(traj, zeta, profile, sp, sw)

    # W is linear in t between snapshots: at a t-point in [t_k, t_{k+1}] it
    # is (1 - f) w_k + f w_{k+1}, so each double integral is a sum over k of
    # a time weight times a space sum of w_k (of w_k^2 and w_k w_{k+1} for W^2)
    k_snaps = times.size
    idx = np.clip(np.searchsorted(times, tp, side="right") - 1, 0, k_snaps - 2)
    frac = (tp - times[idx]) / (times[idx + 1] - times[idx])
    sig = np.asarray(zeta.t_factor.value(tp), dtype=float)
    sig1 = np.asarray(zeta.t_factor.d1(tp), dtype=float)

    def snap_weights(at_left, at_right):
        # per-snapshot sums of t-point values: at_left to idx, at_right to idx + 1
        return np.bincount(idx, at_left, k_snaps) + np.bincount(idx + 1, at_right, k_snaps)

    def linear(space_sums, kernel_t):
        # int int kernel_t kernel_s W = sum_k c_k (w_k . kernel_s)
        u = tw * kernel_t
        return float(np.dot(snap_weights(u * (1.0 - frac), u * frac), space_sums))

    def quadratic(kernel_t):
        # W^2 = (1-f)^2 w_k^2 + 2f(1-f) w_k w_{k+1} + f^2 w_{k+1}^2
        u = tw * kernel_t
        c_square = snap_weights(u * (1.0 - frac) ** 2, u * frac * frac)
        c_cross = np.bincount(idx, 2.0 * u * frac * (1.0 - frac), k_snaps - 1)
        return float(np.dot(c_square, square) + np.dot(c_cross, cross))

    term_time = linear(sums[0], sig1)           # int int zeta_t W
    term_diff = linear(sums[1], sig)            # int int (s^p zeta)_ss W
    term_adv = quadratic(sig)                   # int int zeta_s W^2
    term_forcing = linear(sums[2], sig)
    if zeta.t_factor.support[0] == 0.0:
        sigma0 = float(np.asarray(zeta.t_factor.value(0.0)))
        term_initial = sigma0 * float(sums[0, 0])
    else:
        term_initial = 0.0

    n = traj.n
    lhs = -term_time - term_initial
    rhs = n * n * term_diff - 0.5 * term_adv - n * term_forcing
    terms = {
        "time": term_time,
        "initial": term_initial,
        "diffusion": n * n * term_diff,
        "advection": 0.5 * term_adv,
        "forcing": n * term_forcing,
    }
    scale = max(max(abs(v) for v in terms.values()), 1e-300)
    return ResidualReport(field=zeta.name, residual=abs(lhs - rhs), scale=scale, terms=terms)
