"""Mass-accumulation transform of the plateau initial datum, sampled mass
functions and their CSV files.

For a radial density u(r) >= 0 in n dimensions the mass function is

    W(s) = n * integral_0^{s**(1/n)} u(r) r**(n-1) dr,

so |S_{n-1}|/n * W(s) is the mass inside the ball of radius s**(1/n).
W vanishes at s = 0, is non-decreasing and tends to n*mu/|S_{n-1}| with the
total mass mu.  A jump W(0+) of W at the origin carries a point mass of
|S_{n-1}|/n * W(0+) concentrated at x = 0; at a finite cutoff eps, where
W(0) = 0, that atom shows as the plateau of W from about s = eps outward.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class MassFunction:
    """A time-stamped sampling of W on a graded grid starting at s = 0;
    ``far_field`` is the limit n*mu/|S_{n-1}|.  The grid is held read-only:
    a writeable one is copied, so the caller's own array stays writeable."""

    s: np.ndarray
    w: np.ndarray
    time: float
    far_field: float

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if s.flags.writeable:
            s = s.copy()
            s.flags.writeable = False
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "w", w)
        if s.ndim != 1 or s.shape != w.shape or s.size < 2:
            raise ParameterError("grid and values must be matching 1-d arrays")
        if s[0] != 0.0 or not np.all(np.diff(s) > 0):
            raise ParameterError("grid must start at 0 and increase strictly")


def w0_from_density(c0: float, mesh_s) -> MassFunction:
    """Initial mass function of the plateau u0 = c0 on the unit ball, exactly
    on the given grid: W0(s) = c0 * min(s, 1), with far-field cap c0."""
    s = np.asarray(mesh_s, dtype=float)
    return MassFunction(s=s, w=c0 * np.minimum(s, 1.0), time=0.0, far_field=c0)


# cell text by exact type: an int, a float or a np.float64 (a float subclass)
# as the repr of a Python float, so 3 is written 3.0; anything else, bools
# included, by str
_CELL = {float: float.__repr__, np.float64: float.__repr__, int: lambda v: repr(float(v))}


def _write_lines(path, header: str, lines) -> None:
    """A text file of the header row and ``lines``, each ending in LF; the
    directory is created if missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def write_rows(path, header: str, rows) -> None:
    """CSV with a mandatory header row and LF endings; the directory is
    created if missing."""
    _write_lines(path, header, (",".join([_CELL.get(type(v), str)(v) for v in row]) + "\n"
                                for row in rows))


def write_csv(w: MassFunction, path) -> None:
    """Snapshot as two-column CSV (header mandatory, full-precision floats),
    formatted from Python floats, as ``write_rows`` formats a float."""
    _write_lines(path, "s,W", (f"{s!r},{v!r}\n" for s, v in zip(w.s.tolist(), w.w.tolist())))
