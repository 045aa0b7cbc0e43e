"""Thin adaptive-quadrature wrapper with an explicit failure contract, and
the fixed Gauss-Legendre rule on arrays of intervals."""

from __future__ import annotations

import functools

import numpy as np
from scipy import integrate

from .errors import NumericalError

_QUAD_ATOL = 1e-300
_QUAD_LIMIT = 400


def integrate_adaptive(fn, lo, hi, *, rtol=1e-10):
    """Gauss-Kronrod adaptive quadrature of ``fn`` over [lo, hi].

    Raises NumericalError carrying the achieved tolerance when the estimate
    does not converge.
    """
    value, err, *rest = integrate.quad(fn, lo, hi, full_output=1, limit=_QUAD_LIMIT,
                                       epsrel=rtol, epsabs=_QUAD_ATOL)
    info_ok = len(rest) == 1  # a message element appears only on trouble
    achieved = err / max(abs(value), _QUAD_ATOL)
    if not info_ok and achieved > 10.0 * rtol:
        raise NumericalError(
            f"quadrature over [{lo}, {hi}] did not converge: "
            f"achieved relative error {achieved:.3e} (target {rtol:.1e})",
            achieved=achieved,
        )
    return value


@functools.cache
def _legendre(order):
    # leggauss solves an eigenproblem per call; every caller shares the result
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(a, b, order):
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on each
    interval [a, b].  ``a`` and ``b`` broadcast against each other; the rule
    runs along a new last axis, so ``sum(fn(nodes) * weights, axis=-1)`` is
    the integral over each interval."""
    nodes, weights = _legendre(order)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * nodes, half * weights
