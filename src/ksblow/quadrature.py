"""The fixed Gauss-Legendre rule on arrays of intervals."""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss


@functools.cache
def legendre_rule(order):
    """Read-only nodes and weights of the ``order``-point Gauss-Legendre rule
    on [-1, 1]; leggauss solves an eigenproblem per call, so every caller
    shares one result."""
    nodes, weights = leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(a, b, order):
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on each
    interval [a, b].  ``a`` and ``b`` broadcast against each other; the rule
    runs along a new last axis, so ``sum(fn(nodes) * weights, axis=-1)`` is
    the integral over each interval."""
    nodes, weights = legendre_rule(order)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * nodes, half * weights
