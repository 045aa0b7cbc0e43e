import numpy as np
import pytest

from ksblow import (MassFunction, ParameterError, build_mesh, estimate_origin_limit,
                    w0_from_density, write_csv)


def read_csv(path):
    """The (s, W) columns of a ``write_csv`` snapshot."""
    lines = path.read_text().splitlines()
    assert lines[0] == "s,W"
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]]).T


def test_far_field_equals_plateau_height():
    # n*mu/|S_{n-1}| = c0 for unit-ball plateau data, exactly: these heights
    # came out one ulp off when the cap was integrated numerically
    nodes = build_mesh(4.0, 128).nodes
    for c0 in (1.0, 2.0, 3.3, 10.0, 0.7):
        w0 = w0_from_density(c0, nodes)
        assert w0.far_field == c0
        assert w0.w[-1] == c0


def test_w0_plateau_exact():
    mesh = build_mesh(4.0, 256)
    w0 = w0_from_density(1.0, mesh.nodes)
    exact = np.minimum(mesh.nodes, 1.0)
    assert np.max(np.abs(w0.w - exact)) <= 1e-12
    assert w0.w[0] == 0.0
    assert np.all(np.diff(w0.w) >= 0.0)
    w0.validate()


def test_origin_limit_jump_data():
    mesh = build_mesh(4.0, 256)
    s = mesh.nodes
    w = np.where(s > 0, 0.3 + 0.7 * np.minimum(s, 1.0), 0.0)
    mf = MassFunction(s=s, w=w, time=0.0, far_field=1.0)
    assert estimate_origin_limit(mf) == pytest.approx(0.3, rel=1e-9)


def test_origin_limit_power_data():
    # pure power data j=0: W = s^0.5 on the first nodes
    mesh = build_mesh(1.0, 128)
    s = mesh.nodes
    mf = MassFunction(s=s, w=np.sqrt(np.minimum(s, 1.0)), time=0.0, far_field=1.0)
    assert estimate_origin_limit(mf) == pytest.approx(0.0, abs=1e-12)


def test_origin_limit_clamped():
    mesh = build_mesh(1.0, 128)
    s = mesh.nodes
    # strongly convex start: naive extrapolation would go negative
    mf = MassFunction(s=s, w=np.minimum(s, 1.0) ** 2 * 0.5 + 0.5 * np.minimum(s, 1.0),
                      time=0.0, far_field=1.0)
    j = estimate_origin_limit(mf)
    assert 0.0 <= j <= mf.w[1]


def test_csv_round_trip(tmp_path):
    mesh = build_mesh(2.0, 128)
    mf = MassFunction(s=mesh.nodes, w=np.minimum(mesh.nodes, 1.0), time=0.5,
                      far_field=1.0)
    path = tmp_path / "snap.csv"
    write_csv(mf, path)
    s, w = read_csv(path)
    np.testing.assert_array_equal(s, mf.s)
    np.testing.assert_array_equal(w, mf.w)


def test_reconstruct_rejects_non_monotone():
    mesh = build_mesh(2.0, 128)
    w = np.minimum(mesh.nodes, 1.0)
    w[60] = w[64]  # create a drop
    with pytest.raises(ParameterError, match="non-decreasing"):
        MassFunction(s=mesh.nodes, w=w, time=0.0, far_field=1.0).validate()


def test_mass_function_validation():
    s = np.array([0.0, 0.5, 1.0])
    MassFunction(s=s, w=np.array([0.0, 0.5, 1.0]), time=0.0, far_field=1.0).validate()
    with pytest.raises(ParameterError, match="non-decreasing"):
        MassFunction(s=s, w=np.array([0.0, 0.6, 0.5]), time=0.0, far_field=1.0).validate()
    with pytest.raises(ParameterError, match="cap"):
        MassFunction(s=s, w=np.array([0.0, 0.5, 1.1]), time=0.0,
                     far_field=1.0).validate()
    with pytest.raises(ParameterError, match="start at 0"):
        MassFunction(s=np.array([0.1, 0.5, 1.0]), w=np.array([0.0, 0.5, 1.0]),
                     time=0.0, far_field=1.0)
