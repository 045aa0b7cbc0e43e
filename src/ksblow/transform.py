"""The mass function W, the plateau initial datum W0 and the CSV files of
sampled W.

For a radial density u(r) >= 0 in n dimensions the mass function is

    W(s) = n * integral_0^{s**(1/n)} u(r) r**(n-1) dr,

so |S_{n-1}|/n * W(s) is the mass inside the ball of radius s**(1/n).
W vanishes at s = 0, is non-decreasing and tends to n*mu/|S_{n-1}| with the
total mass mu.  A jump W(0+) of W at the origin carries a point mass of
|S_{n-1}|/n * W(0+) concentrated at x = 0; at a finite cutoff eps, where
W(0) = 0, that atom shows as the plateau of W from about s = eps outward.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def w0_from_density(c0: float, s) -> np.ndarray:
    """W0(s) = c0 min(s, 1) of the plateau u0 = c0 on the unit ball, on the nodes ``s``."""
    return c0 * np.minimum(s, 1.0)


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


def write_csv(snapshot, path) -> None:
    """Snapshot ``(s, W)`` as two-column CSV (header mandatory, full-precision
    floats), formatted from Python floats, as ``write_rows`` formats a float."""
    s, w = snapshot
    _write_lines(path, "s,W", (f"{a!r},{b!r}\n" for a, b in zip(s.tolist(), w.tolist())))
