"""Mass-accumulation transform of the plateau initial datum, sampled mass
functions, and the origin limit W(0+).

For a radial density u(r) >= 0 in n dimensions the mass function is

    W(s) = n * integral_0^{s**(1/n)} u(r) r**(n-1) dr,

so |S_{n-1}|/n * W(s) is the mass inside the ball of radius s**(1/n).
W vanishes at s = 0, is non-decreasing and tends to n*mu/|S_{n-1}| with the
total mass mu.  A jump W(0+) of W at the origin carries a point mass of
|S_{n-1}|/n * W(0+) concentrated at x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_MONOTONE_SLACK = 1e-8
_CAP_SLACK = 1e-10


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


def w0_from_density(c0: float, mesh_s) -> MassFunction:
    """Initial mass function of the plateau u0 = c0 on the unit ball, exactly
    on the given grid: W0(s) = c0 * min(s, 1), with far-field cap c0."""
    s = np.asarray(mesh_s, dtype=float)
    return MassFunction(s=s, w=c0 * np.minimum(s, 1.0), time=0.0, far_field=c0)


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


def write_csv(w: MassFunction, path) -> None:
    """Snapshot as two-column CSV (header mandatory, full-precision floats)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("s,W\n")
        for si, wi in zip(w.s, w.w):
            fh.write(f"{float(si)!r},{float(wi)!r}\n")
