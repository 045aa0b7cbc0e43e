import numpy as np
import pytest

from ksblow import (MassFunction, ParameterError, SolverError, build_mesh, w0_from_density,
                    write_csv)
from ksblow.solver import _check_row


def read_csv(path):
    """The (s, W) columns of a ``write_csv`` snapshot."""
    lines = path.read_text().splitlines()
    assert lines[0] == "s,W"
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]]).T


def test_far_field_equals_plateau_height():
    # n*mu/|S_{n-1}| = c0 for unit-ball plateau data, exactly: these heights
    # came out one ulp off when the cap was integrated numerically
    nodes = build_mesh(4.0, 128)
    for c0 in (1.0, 2.0, 3.3, 10.0, 0.7):
        w0 = w0_from_density(c0, nodes)
        assert w0.far_field == c0
        assert w0.w[-1] == c0


def test_w0_plateau_exact(assert_mass_function):
    s = build_mesh(4.0, 256)
    w0 = w0_from_density(1.0, s)
    exact = np.minimum(s, 1.0)
    assert np.max(np.abs(w0.w - exact)) <= 1e-12
    assert w0.w[0] == 0.0
    assert np.all(np.diff(w0.w) >= 0.0)
    assert_mass_function(w0)


def test_csv_round_trip(tmp_path):
    s = build_mesh(2.0, 128)
    mf = MassFunction(s=s, w=np.minimum(s, 1.0), time=0.5,
                      far_field=1.0)
    path = tmp_path / "snap.csv"
    write_csv(mf, path)
    s, w = read_csv(path)
    np.testing.assert_array_equal(s, mf.s)
    np.testing.assert_array_equal(w, mf.w)


def _check(w, s, cap=1.0):
    """The solver's invariant check of one run's W at t = 0; returns its log."""
    drops = np.diff(w)
    violations = []
    _check_row(float(drops.min()), w, drops, s, cap, 0.0, violations)
    return violations


def test_reconstruct_rejects_non_monotone():
    s = build_mesh(2.0, 128)
    w = np.minimum(s, 1.0)
    w[60] = w[64]  # create a drop
    with pytest.raises(SolverError, match="monotonicity violated") as err:
        _check(w, s)
    assert err.value.location == (s[60], 0.0)  # the drop from node 60 to 61


def test_mass_function_leaves_caller_grid_writeable():
    # a writeable grid is copied and the copy frozen; the caller's own array
    # stays writeable, and a read-only grid is held as it is
    s = build_mesh(4.0, 128).copy()
    mf = w0_from_density(1.0, s)
    assert s.flags.writeable
    assert not mf.s.flags.writeable
    assert mf.s is not s
    np.testing.assert_array_equal(mf.s, s)
    frozen = build_mesh(4.0, 128)
    assert w0_from_density(1.0, frozen).s is frozen


def test_mass_function_validation():
    s = np.array([0.0, 0.5, 1.0])
    MassFunction(s=s, w=np.array([0.0, 0.5, 1.0]), time=0.0, far_field=1.0)
    with pytest.raises(SolverError, match="monotonicity violated"):
        _check(np.array([0.0, 0.6, 0.5]), s)
    with pytest.raises(SolverError, match="range violated"):
        _check(np.array([0.0, 0.5, 1.1]), s)
    with pytest.raises(ParameterError, match="start at 0"):
        MassFunction(s=np.array([0.1, 0.5, 1.0]), w=np.array([0.0, 0.5, 1.0]),
                     time=0.0, far_field=1.0)
