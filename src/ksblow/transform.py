"""Mass-accumulation transform between radial densities and cumulative mass
functions, and the measure-valued back-transform.

For a radial density u(r) >= 0 in n dimensions the mass function is

    W(s) = n * integral_0^{s**(1/n)} u(r) r**(n-1) dr,

so |S_{n-1}|/n * W(s) is the mass inside the ball of radius s**(1/n).
W vanishes at s = 0, is non-decreasing and tends to n*mu/|S_{n-1}| with the
total mass mu.  Conversely a density sample is recovered from W_s(|x|^n),
and a jump W(0+) of W at the origin carries a point mass of
|S_{n-1}|/n * W(0+) concentrated at x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError
from .params import sphere_area
from .quadrature import integrate_adaptive

_MONOTONE_SLACK = 1e-8
_CAP_SLACK = 1e-10


@dataclass(frozen=True)
class RadialDensity:
    """Radial density r -> u(r): a plateau on a ball, or tabulated samples."""

    kind: str
    r_max: float
    c0: float = 0.0
    r_table: np.ndarray | None = field(default=None, repr=False)
    u_table: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def plateau(cls, c0: float, radius: float = 1.0) -> "RadialDensity":
        if c0 <= 0 or radius <= 0:
            raise ParameterError(f"plateau needs c0 > 0 and radius > 0 (got {c0}, {radius})")
        return cls(kind="plateau", r_max=radius, c0=c0)

    @classmethod
    def tabulated(cls, r, u) -> "RadialDensity":
        r = np.asarray(r, dtype=float)
        u = np.asarray(u, dtype=float)
        if r.ndim != 1 or r.shape != u.shape or not np.all(np.diff(r) > 0):
            raise ParameterError("tabulated density needs strictly increasing r and matching u")
        if np.any(u < 0):
            raise ParameterError("density must be nonnegative")
        ro = r.copy(); ro.flags.writeable = False
        uo = u.copy(); uo.flags.writeable = False
        return cls(kind="tabulated", r_max=float(r[-1]), r_table=ro, u_table=uo)

    def __call__(self, r):
        r_arr = np.asarray(r, dtype=float)
        if self.kind == "plateau":
            out = np.where(r_arr <= self.r_max, self.c0, 0.0)
        else:
            out = np.interp(r_arr, self.r_table, self.u_table, left=self.u_table[0], right=0.0)
            out = np.where(r_arr > self.r_max, 0.0, out)
        return float(out) if np.ndim(r) == 0 else out


def _tabulated_moment(u0: RadialDensity, n: int, r_hi: float) -> float:
    """integral_0^{r_hi} u(r) r^(n-1) dr, exact for the piecewise-linear
    interpolant the tabulated density is."""
    r = np.minimum(u0.r_table, r_hi)
    u = np.interp(r, u0.r_table, u0.u_table)
    a, b = r[:-1], r[1:]
    ua, ub = u[:-1], u[1:]
    keep = b > a
    a, b, ua, ub = a[keep], b[keep], ua[keep], ub[keep]
    slope = (ub - ua) / (b - a)
    inter = ua - slope * a
    pn = (np.power(b, n) - np.power(a, n)) / n
    pn1 = (np.power(b, n + 1) - np.power(a, n + 1)) / (n + 1)
    return float(np.sum(inter * pn + slope * pn1))


def total_mass(u0: RadialDensity, n: int) -> float:
    """mu = |S_{n-1}| * integral u0(r) r**(n-1) dr.

    Plateau data go through adaptive quadrature (relative 1e-12); tabulated
    data are integrated exactly as the piecewise-linear interpolants they
    are, which an adaptive rule could only approach.
    """
    area = sphere_area(n)
    if u0.kind == "tabulated":
        return area * _tabulated_moment(u0, n, u0.r_max)
    val = integrate_adaptive(lambda r: u0(r) * r ** (n - 1), 0.0, u0.r_max,
                             points=[u0.r_max * 0.5], rtol=1e-12)
    return area * val


@dataclass(frozen=True)
class MassFunction:
    """A time-stamped sampling of W on a graded grid starting at s = 0;
    ``far_field`` is the limit n*mu/|S_{n-1}|."""

    s: np.ndarray
    w: np.ndarray
    time: float
    far_field: float

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "w", w)
        if s.ndim != 1 or s.shape != w.shape or s.size < 2:
            raise ParameterError("grid and values must be matching 1-d arrays")
        if s[0] != 0.0 or not np.all(np.diff(s) > 0):
            raise ParameterError("grid must start at 0 and increase strictly")

    def validate(self) -> "MassFunction":
        cap = self.far_field
        if abs(self.w[0]) > _CAP_SLACK * max(cap, 1.0):
            raise ParameterError(f"W(0) must vanish (got {self.w[0]!r})")
        worst = float(np.min(np.diff(self.w)))
        if worst < -_MONOTONE_SLACK * max(cap, 1.0):
            i = int(np.argmin(np.diff(self.w)))
            raise ParameterError(
                f"W must be non-decreasing: drop {worst:.3e} at s = {self.s[i]!r}")
        if float(np.max(self.w)) > cap * (1.0 + _CAP_SLACK):
            raise ParameterError(
                f"W exceeds its far-field cap {cap!r}: max {float(np.max(self.w))!r}")
        return self


def w0_from_density(u0: RadialDensity, n: int, mesh_s) -> MassFunction:
    """Initial mass function on the given grid.

    Plateau data are transformed exactly (W0(s) = c0 * min(s, r_max**n) is
    piecewise linear); tabulated data are integrated exactly as the
    piecewise-linear interpolants they are.
    """
    s = np.asarray(mesh_s, dtype=float)
    mu = total_mass(u0, n)
    far = n * mu / sphere_area(n)
    if u0.kind == "plateau":
        w = u0.c0 * np.minimum(s, u0.r_max ** n)
    else:
        w = np.array([n * _tabulated_moment(u0, n, r) for r in np.power(s, 1.0 / n)])
        w[0] = 0.0
    return MassFunction(s=s, w=w, time=0.0, far_field=far)


@dataclass(frozen=True)
class DiracAtom:
    """Point mass |S_{n-1}|/n * W(0+) sitting at the origin (cells)."""

    mass: float


def estimate_origin_limit(w: MassFunction) -> float:
    """Estimate W(0+) by fitting W ~ j + m*s^q, q in (0, 1], on the three
    smallest positive grid nodes; j is clamped to [0, W(s1)].

    A jump-plus-power model captures both regular profiles (j = 0) and
    atom-forming ones; degenerate node data fall back to linear
    extrapolation.  The estimate is a model choice, not a measurement.
    """
    if w.s.size < 4:
        s1, s2 = w.s[1], w.s[-1]
        w1 = w.w[1]
        return float(min(max(w1 - s1 * (w.w[-1] - w1) / (s2 - s1), 0.0), w1))
    s1, s2, s3 = w.s[1], w.s[2], w.s[3]
    w1, w2, w3 = w.w[1], w.w[2], w.w[3]
    d21, d32 = w2 - w1, w3 - w2
    j = None
    if d21 > 0 and d32 > 0:
        target = d32 / d21

        def ratio(q):
            return (s3 ** q - s2 ** q) / (s2 ** q - s1 ** q)

        lo_q, hi_q = 1e-6, 1.0
        r_lo, r_hi = ratio(lo_q), ratio(hi_q)
        if min(r_lo, r_hi) <= target <= max(r_lo, r_hi):
            for _ in range(200):
                mid = 0.5 * (lo_q + hi_q)
                if (ratio(mid) - target) * (r_lo - target) <= 0:
                    hi_q = mid
                else:
                    lo_q = mid
                    r_lo = ratio(lo_q)
            q = 0.5 * (lo_q + hi_q)
            m = d21 / (s2 ** q - s1 ** q)
            j = w1 - m * s1 ** q
    if j is None:
        # linear fallback through the first two positive nodes
        j = w1 - s1 * d21 / (s2 - s1) if s2 > s1 else w1
    return float(min(max(j, 0.0), w1))


def reconstruct(w: MassFunction, n: int):
    """Back-transform: density samples u(r_j) = W_s(r_j**n) by centered
    differences on the graded grid, plus the origin atom.

    The origin jump is removed from the first difference stencil (the value
    at s = 0 is replaced by the W(0+) estimate), so the returned samples are
    the regular part of the density and the atom is not double counted:
    atom + |S_{n-1}| * integral u r^(n-1) dr recovers the total mass.

    Returns (r, u, DiracAtom).  Raises on non-monotone input.
    """
    w.validate()
    origin = estimate_origin_limit(w)
    s = w.s
    vals = w.w.astype(float).copy()
    vals[0] = origin
    ws = np.empty_like(vals)
    h = np.diff(s)
    # nonuniform centered differences in the interior, one-sided at the ends
    hl, hr = h[:-1], h[1:]
    ws[1:-1] = (hl ** 2 * vals[2:] + (hr ** 2 - hl ** 2) * vals[1:-1] - hr ** 2 * vals[:-2]) / (
        hl * hr * (hl + hr))
    ws[0] = (vals[1] - vals[0]) / h[0]
    ws[-1] = (vals[-1] - vals[-2]) / h[-1]
    r = np.power(s[1:], 1.0 / n)
    u = ws[1:]
    atom = DiracAtom(mass=sphere_area(n) / n * origin)
    return r, u, atom


def write_csv(w: MassFunction, path) -> None:
    """Snapshot as two-column CSV (header mandatory, full-precision floats)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("s,W\n")
        for si, wi in zip(w.s, w.w):
            fh.write(f"{float(si)!r},{float(wi)!r}\n")


def read_csv(path, time: float = 0.0, far_field: float | None = None) -> MassFunction:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "s,W":
            raise NumericalError(f"expected header 's,W' in {path}, got {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    s = np.array([float(a) for a, _ in rows])
    w = np.array([float(b) for _, b in rows])
    if far_field is None:
        far_field = float(w[-1])
    return MassFunction(s=s, w=w, time=time, far_field=far_field)
