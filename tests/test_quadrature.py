import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from ksblow.quadrature import legendre_rule


@pytest.mark.parametrize("order", [12, 16])
def test_legendre_rule_table_is_leggauss_bit_for_bit(order):
    nodes, weights = legendre_rule(order)
    want_nodes, want_weights = leggauss(order)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == want_weights.tobytes()
    for a in (nodes, weights):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_legendre_rule_outside_the_table_names_its_orders():
    with pytest.raises(ValueError, match=r"no 10-point .*orders \[12, 16\]"):
        legendre_rule(10)
