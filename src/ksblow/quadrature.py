"""The fixed Gauss-Legendre rule on arrays of intervals."""

from __future__ import annotations

import numpy as np

# The nonnegative half of numpy.polynomial.legendre.leggauss(order), nodes
# ascending, with their weights.  leggauss symmetrizes its result exactly, so
# the mirrored halves give it bit for bit without its eigenvalue solve (which
# would also start numpy's BLAS) and without importing numpy.polynomial.
_HALF_RULES = {
    12: ((0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
          0.7699026741943047, 0.9041172563704748, 0.9815606342467192),
         (0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
          0.16007832854334642, 0.10693932599531907, 0.04717533638651141)),
    16: ((0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
          0.6178762444026438, 0.755404408355003, 0.8656312023878318,
          0.9445750230732326, 0.9894009349916499),
         (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
          0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
          0.062253523938647456, 0.027152459411754176)),
}


def _mirrored(half_nodes, half_weights):
    """The whole rule from its nonnegative half, as read-only arrays."""
    nodes = np.array(half_nodes)
    weights = np.array(half_weights)
    rule = (np.concatenate((-nodes[::-1], nodes)), np.concatenate((weights[::-1], weights)))
    for a in rule:
        a.flags.writeable = False
    return rule


_RULES = {order: _mirrored(*half) for order, half in _HALF_RULES.items()}


def legendre_rule(order):
    """Read-only nodes and weights of the ``order``-point Gauss-Legendre rule
    on [-1, 1], for the orders in the table (12 and 16)."""
    if order not in _RULES:
        raise ValueError(f"no {order}-point Gauss-Legendre rule; the table has "
                         f"orders {sorted(_RULES)}")
    return _RULES[order]


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
