import numpy as np
import pytest

from ksblow import (BumpFactor, ParameterError, SolverConfig, StepDownFactor, TestField, build_mesh, solve_regularized,
                    w0_from_density, weak_residual)
from ksblow.solver import Trajectory
from ksblow.weakform import field_library


def _constant_trajectory(s, cap=1.0, times=(0.0, 0.025, 0.05)):
    snaps = tuple(np.full_like(s, cap) for _ in times)
    return Trajectory(s=s, epsilon=1e-2, times=times, snapshots=snaps,
                      far_field=cap, metadata={"n": 3})


class _ZeroFactor:
    def __init__(self, lo, hi):
        self.support = (lo, hi)

    def value(self, v):
        return np.zeros_like(np.asarray(v, dtype=float))

    d1 = value
    d2 = value


def test_zero_field_zero_residual(scenario_profile):
    s = build_mesh(4.0, 128)
    traj = _constant_trajectory(s)
    zero = TestField("zero", _ZeroFactor(1.0, 2.0), _ZeroFactor(0.01, 0.04))
    rep = weak_residual(traj, zero, scenario_profile)
    assert rep.residual == 0.0


def test_constant_state_cancellation(scenario_profile):
    s = build_mesh(4.0, 256)
    traj = _constant_trajectory(s)
    lib = field_library(4.0, 0.05, epsilon=1e-2)
    rep = weak_residual(traj, lib["constant_state"], scenario_profile)
    assert rep.residual <= 1e-12 * rep.scale


def test_support_validation(scenario_profile):
    s = build_mesh(4.0, 128)
    traj = _constant_trajectory(s)
    too_wide = TestField("wide", BumpFactor(1.0, 5.0), BumpFactor(0.01, 0.02))
    with pytest.raises(ParameterError, match="s-support"):
        weak_residual(traj, too_wide, scenario_profile)
    too_long = TestField("long", BumpFactor(1.0, 2.0), BumpFactor(0.01, 0.2))
    with pytest.raises(ParameterError, match="t-support"):
        weak_residual(traj, too_long, scenario_profile)


def test_bump_factor_derivatives():
    g = BumpFactor(1.0, 3.0)
    v = np.linspace(1.01, 2.99, 301)
    h = 1e-6
    np.testing.assert_allclose((g.value(v + h) - g.value(v - h)) / (2 * h), g.d1(v),
                               rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose((g.d1(v + h) - g.d1(v - h)) / (2 * h), g.d2(v),
                               rtol=1e-5, atol=1e-6)
    assert g.value(1.0) == 0.0 and g.value(3.0) == 0.0
    assert g.value(2.0) == 1.0


def test_stepdown_factor():
    f = StepDownFactor(hi=1.0, width=0.4)
    assert float(f.value(0.0)) == 1.0
    assert float(f.value(0.6)) == 1.0
    assert float(f.value(1.0)) == 0.0
    t = np.linspace(0.61, 0.99, 101)
    h = 1e-7
    np.testing.assert_allclose((f.value(t + h) - f.value(t - h)) / (2 * h), f.d1(t),
                               rtol=1e-5, atol=1e-6)
    # the ramp integrates to -1: what the initial term must cancel against
    ramp = np.linspace(0.6, 1.0, 20001)
    assert np.trapezoid(f.d1(ramp), ramp) == pytest.approx(-1.0, rel=1e-8)


def test_residual_shrinks_under_refinement(scenario, scenario_profile):
    def run(N, max_dt, n_out):
        s = build_mesh(4.0, N)
        w0 = w0_from_density(1.0, s)
        times = tuple(np.linspace(0.0, 0.02, n_out))
        cfg = SolverConfig(epsilon=1e-2, t_end=0.02, output_times=times,
                           max_dt=max_dt)
        return solve_regularized(scenario, w0, cfg, scenario_profile)

    base = run(128, 4e-5, 33)
    fine = run(256, 2e-5, 65)
    lib = field_library(4.0, 0.02, epsilon=1e-2)
    for name in ("interior", "initial", "origin_window"):
        rb = weak_residual(base, lib[name], scenario_profile)
        rf = weak_residual(fine, lib[name], scenario_profile)
        assert rf.residual < rb.residual, name


def test_real_run_constant_state(scenario, scenario_profile):
    s = build_mesh(4.0, 256)
    w0 = w0_from_density(1.0, s)
    times = tuple(np.linspace(0.0, 0.02, 33))
    cfg = SolverConfig(epsilon=1e-2, t_end=0.02, output_times=times, max_dt=4e-5)
    traj = solve_regularized(scenario, w0, cfg, scenario_profile)
    lib = field_library(4.0, 0.02, epsilon=1e-2)
    rep = weak_residual(traj, lib["constant_state"], scenario_profile)
    assert rep.residual <= 1e-8 * rep.scale
