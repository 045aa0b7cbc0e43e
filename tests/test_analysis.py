import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from ksblow import (NumericalError, ParameterError, SelectionError, SignalProfile,
                    SystemParams, TestFnParams, blowup_indicator, build_testfunction,
                    integral_phi_linear, integral_phi_total, phi_eval, riccati,
                    select_blowup_params, validate, verify_integral_bound,
                    verify_ode_inequality, y_functional)
from ksblow.analysis import l_phi_rate, margin_grid
from ksblow.solver import Trajectory, build_mesh


@pytest.fixture(scope="module")
def tf(scenario):
    return build_testfunction(scenario, xi=4.0, delta=0.8, gamma=20.0)


def test_constants_closed_forms(tf):
    xi, de = 4.0, 0.8
    assert tf.a == pytest.approx(xi ** (de + 1) / de * math.exp(-xi), rel=1e-14, abs=0.0)
    assert tf.b == pytest.approx((xi / de - 1) * math.exp(-xi), rel=1e-14, abs=0.0)
    assert tf.a == pytest.approx(0.277613, rel=1e-5)
    assert tf.b == pytest.approx(0.0732626, rel=1e-5)
    assert tf.c1 == pytest.approx(12.0 * 4.0 ** (1.0 / 3.0), rel=1e-14, abs=0.0)
    assert tf.c1 == pytest.approx(19.04881, rel=1e-6)
    assert tf.c2 == pytest.approx(1.36 * 4.0 ** (-2.0 / 3.0), rel=1e-12, abs=0.0)
    assert tf.c2 == pytest.approx(0.539716, rel=1e-5)
    assert tf.k0 == tf.c2
    assert tf.K0 == pytest.approx(
        tf.a * 4.0 ** 1.2 / (0.8 * 1.2) + math.exp(-4.0), rel=1e-14, abs=0.0)
    assert tf.K0 == pytest.approx(1.5446189, rel=1e-6)
    assert tf.K0_loose == pytest.approx(tf.a * 4.0 ** 1.2 / 1.2 + math.exp(-4.0),
                                        rel=1e-14, abs=0.0)
    assert tf.K0 > tf.K0_loose  # the loose constant misses the 1/delta factor


def test_infeasible_delta_rejected(scenario):
    with pytest.raises(ParameterError, match="delta"):
        build_testfunction(scenario, xi=4.0, delta=0.6, gamma=20.0)
    # delta barely above the bound but with c2 <= 0 is impossible: the bound
    # is exactly the root, so any delta above it gives c2 > 0
    tf = build_testfunction(scenario, xi=4.0, delta=2.0 / 3.0 + 1e-9, gamma=20.0)
    assert tf.c2 > 0.0


def test_phi_continuity_scenario(tf):
    knot = tf.kink
    phi_k, phis_k, _ = phi_eval(tf, knot)
    assert phi_k == math.exp(-4.0)  # the branch point takes the exponential branch
    assert phis_k == -20.0 * math.exp(-4.0)
    inner_val = tf.a / 20.0 ** 0.8 * knot ** -0.8 - tf.b
    inner_slope = -tf.a * 0.8 / 20.0 ** 0.8 * knot ** -1.8
    assert inner_val == pytest.approx(phi_k, rel=1e-12, abs=0.0)
    assert inner_slope == pytest.approx(phis_k, rel=1e-10)
    assert phis_k == pytest.approx(-0.366313, rel=1e-6)


def test_phi_continuity_random_tuples():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.choice([3, 4, 5, 6]))
        alpha = float(rng.uniform(2.05, n - 0.05))
        R = float(rng.uniform(0.2, 0.9))
        rho = float(rng.uniform(0.05, 0.45) * R)
        params = SystemParams(n, alpha, 1.0, R, rho, 1.0)
        thr = params.threshold
        params = SystemParams(n, alpha, thr * float(rng.uniform(1.1, 5.0)), R, rho, 1.0)
        bound = params.delta_bound
        delta = float(bound + (1 - bound) * rng.uniform(0.1, 0.9))
        xi = float(rng.uniform(4 - 4 / n + 0.02, 4.0))
        gamma = 4.0 / (R - rho) * 2 ** float(rng.uniform(0.1, 6.0))
        t = build_testfunction(params, xi, delta, gamma)
        e = math.exp(-xi)
        inner_val = t.a / gamma ** delta * (xi / gamma) ** -delta - t.b
        inner_slope = -t.a * delta / gamma ** delta * (xi / gamma) ** (-delta - 1)
        assert abs(inner_val - e) <= 1e-12 * e
        assert abs(inner_slope + gamma * e) <= 1e-10 * gamma * e


def test_phi_value_frozen(tf):
    # closed-form oracle: a/gamma^delta * s^-delta - b at s = 0.1
    phi, _, _ = phi_eval(tf, 0.1)
    assert phi == pytest.approx(0.0861843419622226, rel=1e-12, abs=0.0)


def test_phi_shape(tf):
    s = np.geomspace(1e-8, 5.0, 4000)
    phi, phis, phiss = phi_eval(tf, s)
    assert np.all(phi > 0.0)
    assert np.all(phis < 0.0)
    keep = phi > 1e-280  # second derivative positivity where not underflowed
    assert np.all(phiss[keep] > 0.0)
    assert np.all(np.diff(phi) < 0.0)
    with pytest.raises(ParameterError):
        phi_eval(tf, 0.0)


def test_ode_inequality_scenario_both_modes(scenario, tf):
    direct = verify_ode_inequality(tf)
    assert direct.passed
    assert direct.min_margin > 0.0
    transformed = verify_ode_inequality(
        tf, profile=SignalProfile.from_params(scenario))
    assert transformed.passed
    assert transformed.min_margin > 0.0


def test_ode_inequality_forcing_term_vanishes_beyond_support(tf):
    # beyond the support the derivative term contributes exactly zero
    profile = SignalProfile(tf.f0, tf.alpha, tf.R, tf.rho, tf.n, breakpoints="direct")
    s = np.geomspace(profile.s_upper * 1.01, 5.0, 200)
    assert np.all(profile.F_s(s) == 0.0)
    with_term = l_phi_rate(tf, profile, s)
    phi, phis, _ = phi_eval(tf, s)
    # recompute dropping the F_s term entirely: identical values
    n = tf.n
    no_term = with_term + n * profile.F_s(s) * np.ones_like(s)
    np.testing.assert_array_equal(with_term, no_term)


def test_ode_inequality_k0_sanity_on_c1_binding_tuple():
    # tuple where c1 = k0 (c2 is larger): the diffusion-only rate just above
    # the branch point attains k0 * gamma^(2/n) within 10 percent
    params = validate(SystemParams(3, 2.9, 6.0, 0.5, 0.1, 1.0))
    tf = build_testfunction(params, xi=4.0, delta=0.5, gamma=20.0)
    assert tf.c2 > tf.c1 and tf.k0 == tf.c1
    report = verify_ode_inequality(tf)
    assert report.passed
    assert report.diffusion_rate_above_kink == pytest.approx(report.k0_rate, rel=0.1)


def test_margin_grid_avoids_kinks(tf):
    profile = SignalProfile(tf.f0, tf.alpha, tf.R, tf.rho, tf.n, breakpoints="direct")
    g = margin_grid(tf, profile)
    spacing = math.log(10.0 / 1e-8) / 9999
    for kink in (tf.kink, profile.s_lower, profile.s_upper):
        assert np.min(np.abs(np.log(g / kink))) > spacing


def test_integral_bound_scenario(tf):
    rep = verify_integral_bound(tf)
    assert rep.passed
    assert rep.numeric <= rep.bound
    assert rep.outer_piece_closed == pytest.approx(math.exp(-4.0) / 400.0, rel=1e-14, abs=0.0)
    assert rep.outer_piece_closed == pytest.approx(4.57891e-5, rel=1e-5)
    assert rep.outer_piece_numeric == pytest.approx(rep.outer_piece_closed, rel=1e-8)
    assert rep.inner_piece_closed == pytest.approx(
        tf.a * 4.0 ** 1.2 / (0.8 * 1.2 * 400.0), rel=1e-14, abs=0.0)
    # quadrature oracle for the whole integral
    A = tf.a / 20.0 ** 0.8
    oracle_inner = quad(lambda s: (A * s ** -0.8 - tf.b) ** 2 / (A * 0.8 * s ** -1.8),
                        0.0, tf.kink, limit=200)[0]
    assert rep.numeric == pytest.approx(oracle_inner + rep.outer_piece_closed, rel=1e-9)
    # K0/gamma^2 equals the sum of the two closed-form pieces
    assert rep.bound == pytest.approx(rep.inner_piece_closed + rep.outer_piece_closed,
                                      rel=1e-14, abs=0.0)


def test_integral_bound_gamma_scaling(scenario):
    t1 = build_testfunction(scenario, 4.0, 0.8, 20.0)
    t2 = build_testfunction(scenario, 4.0, 0.8, 40.0)
    assert verify_integral_bound(t2).bound == pytest.approx(
        verify_integral_bound(t1).bound / 4.0, rel=1e-12, abs=0.0)


def test_riccati_reference_values():
    sol = riccati(1.0, 1.0, 1.0, t1=0.0)
    assert sol.blow_up_time == pytest.approx(math.log(2.0), rel=1e-13, abs=0.0)
    assert sol(0.0) == 1.0
    assert sol(0.5) == pytest.approx(4.69348449872319, rel=1e-12, abs=0.0)


def test_riccati_linear_limit():
    sol = riccati(2.0, 0.0, 3.0, t1=1.0)
    assert sol.blow_up_time == math.inf
    assert sol(2.0) == pytest.approx(3.0 * math.exp(2.0), rel=1e-14, abs=0.0)


def test_riccati_domain_error_carries_time():
    sol = riccati(1.0, 1.0, 1.0, t1=0.0)
    with pytest.raises(NumericalError) as err:
        sol(math.log(2.0))
    assert err.value.blow_up_time == pytest.approx(math.log(2.0), rel=1e-13, abs=0.0)


def test_riccati_blowup_divergence():
    sol = riccati(1.0, 1.0, 1.0, t1=0.0)
    T = sol.blow_up_time
    vals = [sol(T * (1.0 - 10.0 ** -k)) for k in range(1, 7)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1e5


def test_riccati_parameter_validation():
    with pytest.raises(ParameterError):
        riccati(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ParameterError):
        riccati(1.0, -1.0, 1.0, 0.0)
    with pytest.raises(ParameterError):
        riccati(1.0, 1.0, 0.0, 0.0)


def test_select_blowup_params_formulas(scenario):
    seed = TestFnParams(xi=4.0, delta=0.8, gamma=20.0)
    # synthetic measured W: linear ramp capped at 1
    sel = select_blowup_params(0.0, 0.1, 1.0, 0.5, scenario, seed,
                               w_probe=lambda s: min(float(s), 1.0))
    k0 = 1.36 * 4.0 ** (-2.0 / 3.0)
    assert sel.kappa == pytest.approx(k0 * 0.1 / 8.0, rel=1e-14, abs=0.0)
    assert sel.kappa == pytest.approx(0.00674645, rel=1e-6)
    assert sel.diagnostics["gamma_floor_kappa"] == pytest.approx(
        (4.0 / sel.kappa) ** 1.5, rel=1e-12, abs=0.0)
    assert sel.diagnostics["gamma_floor_kappa"] == pytest.approx(14436.99, rel=1e-6)
    assert sel.diagnostics["s0_upper_bound"] == pytest.approx(
        (2.0 * sel.kappa ** 3 / 3.0) ** 0.5, rel=1e-12, abs=0.0)
    assert sel.diagnostics["s0_upper_bound"] == pytest.approx(4.5245e-4, rel=1e-4)
    assert 0.0 < sel.s0 < sel.diagnostics["s0_upper_bound"]
    assert sel.gamma > max(10.0, sel.diagnostics["gamma_floor_kappa"])
    # the probe point must have dropped below s0
    assert sel.kappa * sel.gamma ** (-1.0 / 3.0) < sel.s0
    # the selected s0 satisfies the cubic-sinh requirement
    assert sel.diagnostics["s0_sinh_value"] >= sel.diagnostics["s0_sinh_required"]


def test_select_blowup_params_failure_path(scenario):
    seed = TestFnParams(xi=4.0, delta=0.8, gamma=20.0)
    with pytest.raises(SelectionError) as err:
        select_blowup_params(0.0, 0.1, 1.0, 0.5, scenario, seed,
                             w_probe=lambda s: 0.0, gamma_cap=2.0 ** 25)
    assert err.value.failing == "measured_w_inequality"


def _constant_trajectory(cap=1.0, n=3):
    mesh = build_mesh(4.0, 128)
    times = (0.0, 0.05, 0.1)
    snaps = tuple(np.where(mesh.nodes > 0, cap, 0.0) for _ in times)
    return Trajectory(mesh=mesh, epsilon=1e-2, times=times, snapshots=snaps,
                      far_field=cap, metadata={"n": n})


def test_y_functional_constant_state(scenario):
    tf = build_testfunction(scenario, 4.0, 0.8, 20.0)
    traj = _constant_trajectory()
    rep = y_functional(traj, tf, kappa=0.0067, t1=0.0)
    y = np.array(rep.y)
    assert np.max(np.abs(y - y[0])) <= 1e-14 * y[0]  # constant in t
    assert rep.cap_ok
    assert rep.lower_ok
    assert rep.labels["finite_epsilon_trend"]


def test_y_functional_horizon_error(scenario):
    tf = build_testfunction(scenario, 4.0, 0.8, 20.0)
    traj = _constant_trajectory()
    with pytest.raises(ParameterError, match="horizon"):
        y_functional(traj, tf, kappa=0.0067, t1=0.2)


def test_integral_phi_linear_matches_quadrature(scenario):
    tf = build_testfunction(scenario, 4.0, 0.8, 20.0)
    mesh = build_mesh(4.0, 256)
    s = mesh.nodes
    w = np.minimum(s, 1.0)
    exact = integral_phi_linear(tf, s, w)

    def integrand(x):
        phi, _, _ = phi_eval(tf, x)
        return phi * np.interp(x, s, w)

    oracle = quad(integrand, 0.0, tf.kink, limit=400)[0] + \
        quad(integrand, tf.kink, 4.0, limit=400)[0]
    assert exact == pytest.approx(oracle, rel=1e-8)


def test_integral_phi_total_closed_form(scenario):
    tf = build_testfunction(scenario, 4.0, 0.8, 20.0)

    def phi_scalar(x):
        return phi_eval(tf, x)[0]

    oracle = quad(phi_scalar, 0.0, tf.kink, limit=400)[0] + \
        quad(phi_scalar, tf.kink, np.inf, limit=400)[0]
    assert integral_phi_total(tf) == pytest.approx(oracle, rel=1e-10)


def test_blowup_indicator_plateau(scenario):
    mesh = build_mesh(4.0, 256)
    times = (0.0,)
    snaps = (np.minimum(mesh.nodes, 1.0),)
    traj = Trajectory(mesh=mesh, epsilon=1e-2, times=times, snapshots=snaps,
                      far_field=1.0, metadata={"n": 3})
    rep = blowup_indicator(traj, [1.0])
    value, s_at, t_at = rep.sup_w_over_s_beta[1.0]
    assert value == pytest.approx(1.0, rel=1e-12, abs=0.0)  # W0/s = c0 on (0, 1]
    assert t_at == 0.0
    assert rep.atom_estimate == pytest.approx(0.0, abs=1e-12)
    payload = rep.to_json_dict()
    json.dumps(payload)  # serializable
    with pytest.raises(ParameterError, match="betas"):
        blowup_indicator(traj, [0.5])
