import tracemalloc

import numpy as np
import pytest

from ksblow import (BumpFactor, ParameterError, SolverSection, StepDownFactor, TestField,
                    build_mesh, solve_regularized, weak_residual)
from ksblow import weakform
from ksblow.quadrature import gauss_legendre
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
        times = tuple(np.linspace(0.0, 0.02, n_out).tolist())
        cfg = SolverSection(s_max=4.0, N=N, epsilon=1e-2, t_end=0.02, output_times=times,
                            max_dt=max_dt)
        return solve_regularized(scenario, cfg, scenario_profile)

    base = run(128, 4e-5, 33)
    fine = run(256, 2e-5, 65)
    lib = field_library(4.0, 0.02, epsilon=1e-2)
    for name in ("interior", "initial", "origin_window"):
        rb = weak_residual(base, lib[name], scenario_profile)
        rf = weak_residual(fine, lib[name], scenario_profile)
        assert rf.residual < rb.residual, name


def test_real_run_constant_state(scenario, scenario_profile):
    times = tuple(np.linspace(0.0, 0.02, 33).tolist())
    cfg = SolverSection(s_max=4.0, N=256, epsilon=1e-2, t_end=0.02, output_times=times,
                        max_dt=4e-5)
    traj = solve_regularized(scenario, cfg, scenario_profile)
    lib = field_library(4.0, 0.02, epsilon=1e-2)
    rep = weak_residual(traj, lib["constant_state"], scenario_profile)
    assert rep.residual <= 1e-8 * rep.scale


def _monotone_trajectory(N, n_snaps, t_end=0.05):
    # non-decreasing in s, every snapshot different, irregular snapshot times
    s = build_mesh(4.0, N)
    rng = np.random.default_rng(7)
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, t_end, n_snaps - 2)), [t_end]])
    snaps = tuple(1.0 - np.exp(-s * (1.0 + 3.0 * t / t_end)) * (1.0 - s / 4.0) for t in times)
    return Trajectory(s=s, epsilon=1e-2, times=tuple(times), snapshots=snaps,
                      far_field=1.0, metadata={"n": 3})


def _dense_terms(traj, zeta, profile):
    # the reference: the bilinear interpolant W on the full (t-point x s-point) grid
    times = np.asarray(traj.times)
    sp, sw, tp, tw = weakform._rules(zeta, traj.s, times)
    w_rows = np.stack([np.interp(sp, traj.s, w) for w in traj.snapshots])
    idx = np.clip(np.searchsorted(times, tp, side="right") - 1, 0, times.size - 2)
    frac = ((tp - times[idx]) / (times[idx + 1] - times[idx]))[:, None]
    W = w_rows[idx] * (1.0 - frac) + w_rows[idx + 1] * frac
    n = traj.n
    p = (2.0 * n - 2.0) / n
    g, g1, g2 = zeta.s_factor.value(sp), zeta.s_factor.d1(sp), zeta.s_factor.d2(sp)
    sig, sig1 = zeta.t_factor.value(tp), zeta.t_factor.d1(tp)
    diff = p * (p - 1.0) * sp ** (p - 2.0) * g + 2.0 * p * sp ** (p - 1.0) * g1 + sp ** p * g2
    F, F_s = profile.forcing(sp)
    forcing = F_s * g + F * g1

    def double(kernel_s, kernel_t, data):
        return float(np.dot(tw * kernel_t, data @ (sw * kernel_s)))

    initial = (float(zeta.t_factor.value(0.0)) * float(np.dot(sw * g, w_rows[0]))
               if zeta.t_factor.support[0] == 0.0 else 0.0)
    return {"time": double(g, sig1, W), "initial": initial,
            "diffusion": n * n * double(diff, sig, W),
            "advection": 0.5 * double(g1, sig, W * W), "forcing": n * double(forcing, sig, W)}


class _Ramp:
    """sigma(t) = 1 + t / hi on [0, hi]: nonzero at the end of its support."""

    def __init__(self, hi):
        self.hi = hi
        self.support = (0.0, hi)

    def value(self, t):
        return 1.0 + np.asarray(t, dtype=float) / self.hi

    def d1(self, t):
        return np.full_like(np.asarray(t, dtype=float), 1.0 / self.hi)


def _rule_with_ends(a, b, order):
    # Gauss-Legendre plus both interval ends: puts a t-point on the last snapshot
    nodes, weights = gauss_legendre(a, b, order)
    ends = np.stack([np.asarray(a, dtype=float), np.asarray(b, dtype=float)], axis=-1)
    end_weights = np.repeat(0.25 * (ends[..., 1:] - ends[..., :1]), 2, axis=-1)
    return np.concatenate([nodes, ends], axis=-1), np.concatenate([weights, end_weights], axis=-1)


@pytest.mark.parametrize("rule", ["gauss", "with_ends"])
def test_residual_matches_dense_interpolant(scenario_profile, monkeypatch, rule):
    # per-snapshot space integrals times time weights give every term of the
    # dense (time x space) evaluation
    if rule == "with_ends":
        monkeypatch.setattr(weakform, "gauss_legendre", _rule_with_ends)
    traj = _monotone_trajectory(96, 9)
    fields = field_library(4.0, 0.05, epsilon=1e-2)
    # reaches the last snapshot time, where frac = 1 at idx = K - 2
    fields["to_end"] = TestField("to_end", BumpFactor(0.5, 2.5), _Ramp(0.05))
    for name, zeta in fields.items():
        rep = weak_residual(traj, zeta, scenario_profile)
        want = _dense_terms(traj, zeta, scenario_profile)
        assert rep.terms.keys() == want.keys()
        for term, value in want.items():
            assert abs(rep.terms[term] - value) <= 1e-13 * rep.scale, (name, term)


def test_residual_memory_is_per_snapshot(scenario_profile):
    # 129 snapshots at N = 512: a dense (time x space) interpolant of
    # origin_window alone peaks at about 49e6 bytes
    traj = _monotone_trajectory(512, 129)
    zeta = field_library(4.0, 0.05, epsilon=1e-2)["origin_window"]
    tracemalloc.start()
    try:
        weak_residual(traj, zeta, scenario_profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("name", ["interior", "initial"])
def test_residual_holds_one_snapshot_at_a_time(scenario_profile, name):
    # K = 65 snapshots at N = 512: a (K, P) block of every snapshot at the P
    # s-points alone would be K * P * 8 bytes.  (origin_window is left out:
    # its s-support crosses the forcing's bridge, whose 16-point rule holds
    # about 50 P-arrays at once, however many snapshots there are.)
    traj = _monotone_trajectory(512, 65)
    zeta = field_library(4.0, 0.05, epsilon=1e-2)[name]
    n_points = weakform._rules(zeta, traj.s, np.asarray(traj.times))[0].size
    tracemalloc.start()
    try:
        weak_residual(traj, zeta, scenario_profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 65 * n_points * 8 / 4
