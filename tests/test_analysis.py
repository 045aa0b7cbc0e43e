import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest
from mpmath import iv
from scipy.integrate import quad

from ksblow import (ParameterError, SelectionError, SignalProfile,
                    SystemParams, blowup_indicator, build_testfunction, default_delta,
                    f0_threshold, integral_phi_linear, integral_phi_total, riccati,
                    select_blowup_params, validate, verify_integral_bound,
                    verify_ode_inequality, y_functional)
from ksblow.analysis import (CELL_PAD, CELL_RATIO, CHUNK, GAMMA_CAP, OdeMarginReport,
                             _ends, _rates)
from ksblow.cli import _default_lemma_grid
from ksblow.solver import Trajectory, build_mesh


def phi_eval(tf, s):
    """The oracle phi, phi_s, phi_ss at s > 0, each from its own power; the
    branch point itself takes the exponential branch."""
    scalar = np.ndim(s) == 0
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr <= 0.0):
        raise ParameterError("s must be > 0", [("s", s, "> 0")])
    A = tf.a / tf.gamma ** tf.delta
    inner = s_arr < tf.kink
    phi = np.empty_like(s_arr)
    phis = np.empty_like(s_arr)
    phiss = np.empty_like(s_arr)
    si = s_arr[inner]
    phi[inner] = A * si ** (-tf.delta) - tf.b
    phis[inner] = -A * tf.delta * si ** (-tf.delta - 1.0)
    phiss[inner] = A * tf.delta * (tf.delta + 1.0) * si ** (-tf.delta - 2.0)
    with np.errstate(under="ignore"):
        e = np.exp(-tf.gamma * s_arr[~inner])
    phi[~inner] = e
    phis[~inner] = -tf.gamma * e
    phiss[~inner] = tf.gamma * tf.gamma * e
    if scalar:
        return float(phi[0]), float(phis[0]), float(phiss[0])
    return phi, phis, phiss


def l_phi_rate(tf, s):
    """L phi / phi at the points s > 0 by the certificate's own reduced form."""
    return _rates(tf, _ends(tf, np.asarray(s, dtype=float)))


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


def test_ode_inequality_scenario(tf):
    # certified on the profile the solver marches, the only one there is
    assert tf.profile == SignalProfile(tf.f0, tf.alpha, tf.R, tf.rho, tf.n)
    [report] = verify_ode_inequality([tf])
    assert report.passed
    assert report.min_margin > 0.0


def test_ode_inequality_forcing_term_vanishes_beyond_support(tf):
    # beyond the support the derivative term contributes exactly zero
    profile = tf.profile
    s = np.geomspace(profile.s_upper * 1.01, 5.0, 200)
    Fs = profile.forcing(s)[1]
    assert np.all(Fs == 0.0)
    with_term = l_phi_rate(tf, s)
    # recompute dropping the F_s term entirely: identical values
    n = tf.n
    no_term = with_term + n * Fs * np.ones_like(s)
    np.testing.assert_array_equal(with_term, no_term)


def test_l_phi_rate_matches_phi_eval(tf):
    # the rate is the reduced form on m = s^(-2/n); phi_eval builds phi and
    # its derivatives each from its own power, and L takes the coefficients
    # as written.  Also at the points of a 10^4-point grid next to the three kinks.
    scan = np.geomspace(1e-8, 10.0, 10_000)
    for n in (3, 4, 6, 8):
        if n == 3:
            t = tf
        else:
            alpha = n - 0.5
            params = validate(SystemParams(n, alpha, 2.0 * f0_threshold(n, alpha), 0.5, 0.1, 1.0))
            t = build_testfunction(params, 4.0, default_delta(params), 20.0)
        profile = t.profile
        near = []
        for kink in (t.kink, profile.s_lower, profile.s_upper):
            j = int(np.searchsorted(scan, kink))
            near += list(scan[max(j - 2, 0):j + 2])
        s = np.unique(np.concatenate((np.geomspace(1e-8, 10.0, 3000), near)))
        phi, phis, phiss = phi_eval(t, s)
        L = (n * n * s ** ((2.0 * n - 2.0) / n) * phiss
             + 4.0 * (n * n - n) * s ** ((n - 2.0) / n) * phis
             - n * profile.F(s) * phis - n * profile.forcing(s)[1] * phi)
        rate = l_phi_rate(t, s)
        keep = (s < t.kink) | (phi > 1e-280)  # past that the exponential has underflowed
        assert np.isin(near, s[keep]).all()
        np.testing.assert_allclose(rate[keep], (L / phi)[keep], rtol=1e-12, err_msg=f"n = {n}")


def test_ode_inequality_k0_sanity_on_c1_binding_tuple():
    # tuple where c1 = k0 (c2 is larger): the diffusion-only rate just above
    # the branch point attains k0 * gamma^(2/n) within 10 percent
    params = validate(SystemParams(3, 2.9, 6.0, 0.5, 0.1, 1.0))
    tf = build_testfunction(params, xi=4.0, delta=0.5, gamma=20.0)
    assert tf.c2 > tf.c1 and tf.k0 == tf.c1
    [report] = verify_ode_inequality([tf])
    assert report.passed
    n, kink, g = tf.n, tf.kink, tf.gamma
    diffusion_rate = (n * n * kink ** ((2.0 * n - 2.0) / n) * g * g
                      - 4.0 * (n * n - n) * kink ** ((n - 2.0) / n) * g)
    assert diffusion_rate == pytest.approx(report.k0_rate, rel=0.1)


@pytest.mark.parametrize("gamma", [14437.1, 28874.0, 1e6])
def test_blowup_selection_range_is_certified(scenario, gamma):
    # criterion 8's test function across the gammas blowup selects on its
    # config (14437.1 is the floor criterion 8 pins): the certified margin
    # stays far above the threshold, with the branch point below the bridge
    tf = build_testfunction(scenario, xi=4.0, delta=0.8, gamma=gamma)
    [report] = verify_ode_inequality([tf])
    assert report.min_margin >= 64.5 * report.k0_rate
    assert verify_integral_bound(tf).passed
    assert tf.kink <= tf.profile.s_lower


def test_cover_certifies_the_power_branch_at_large_gamma(scenario):
    # xi/gamma = 4e-9: the cover is built from the tuple, so it has cells on
    # the power branch however small xi/gamma is, and the lower tail below them
    tf = build_testfunction(scenario, xi=4.0, delta=0.8, gamma=1e9)
    [report] = verify_ode_inequality([tf])
    assert report.passed
    power = report.cells[:, 1] <= tf.kink
    assert report.n_power_cells == np.count_nonzero(power) > 100
    assert report.cells[0, 0] == pytest.approx(1e-4 * tf.kink, rel=1e-15, abs=0.0)
    assert np.min(report.cells[power, 2]) >= 0.0
    assert 490.0 * report.k0_rate <= report.min_margin <= 500.0 * report.k0_rate


def test_cover_tiles_the_window_with_the_kinks_as_edges(tf):
    [report] = verify_ode_inequality([tf])
    profile = tf.profile
    lo, hi, _ = report.cells.T
    np.testing.assert_array_equal(lo[1:], hi[:-1])  # contiguous and ascending
    assert lo[0] == pytest.approx(1e-4 * min(tf.kink, profile.s_lower), rel=1e-15, abs=0.0)
    assert hi[-1] >= 10.0 * max(tf.kink, profile.s_upper)
    for kink in (tf.kink, profile.s_lower, profile.s_upper):
        assert kink in hi
    assert np.all(hi / lo <= CELL_RATIO * (1.0 + 1e-12))
    assert report.n_bisections == 0
    assert report.n_power_cells == np.count_nonzero(hi <= tf.kink)


def test_cell_bounds_never_exceed_the_sampled_rate(scenario):
    # for seeded tuples of the default lemma grid, at both edges of every cell
    tfs = [build_testfunction(SystemParams(item.n, item.alpha, item.f0, item.R, item.rho, 1.0),
                              item.xi, item.delta, item.gamma)
           for item in _default_lemma_grid(scenario, 60, 7)]
    for tf, report in zip(tfs, verify_ode_inequality(tfs), strict=True):
        lo, hi, bound = report.cells.T
        assert report.passed
        assert np.all(bound <= l_phi_rate(tf, lo) - report.k0_rate)
        assert np.all(bound <= l_phi_rate(tf, hi) - report.k0_rate)
        assert report.min_margin == np.min(bound)


# criterion 2's draw 62 (n = 5): certified, but with a margin of only
# 0.0066 k0 gamma^(2/n), near s = 0.044, just below xi/gamma
_TIGHT_TUPLE = ((5, 2.8312647240924864, 50.07109887183778, 0.2608079223447497,
                 0.06882152477655026, 1.0), 3.7341673717316075, 0.9588053154354549,
                80.90981916372357)


def test_bisection_certifies_cells_whose_first_bound_falls_short(monkeypatch):
    import ksblow.analysis as analysis

    system, xi, delta, gamma = _TIGHT_TUPLE
    tf = build_testfunction(validate(SystemParams(*system)), xi, delta, gamma)
    [report] = verify_ode_inequality([tf])
    lo, hi, bound = report.cells.T
    assert report.passed and report.n_bisections > 0
    assert 0.0 < report.min_margin < 0.01 * report.k0_rate
    assert report.argmin_cell[1] <= tf.kink
    np.testing.assert_array_equal(lo[1:], hi[:-1])
    assert np.min(hi / lo) < CELL_RATIO ** 0.5
    # without the bisections the first bounds fail the tuple, at a real cell
    monkeypatch.setattr(analysis, "BISECTIONS", 0)
    [coarse] = verify_ode_inequality([tf])
    assert not coarse.passed and coarse.n_bisections == 0
    assert coarse.min_margin == np.min(coarse.cells[:, 2]) < -1e-9
    assert coarse.argmin_cell[0] < coarse.argmin_cell[1]


# criterion 2's draw 74 (n = 5), which a rate sampled at a cell midpoint fails
_WITNESS_TUPLE = ((5, 2.376865528084249, 90.28823212036266, 0.25160981913106545,
                   0.07563577286378034, 1.0), 3.5675074372900917, 0.7387139899509888,
                  28.04391035929118)


def _same_report(a, b):
    """Every field of the two reports, the cells included, bit for bit."""
    for name in (f.name for f in fields(OdeMarginReport)):
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
        else:
            assert repr(x) == repr(y), name


def test_reports_do_not_depend_on_the_batch(scenario):
    # a tuple gets the same report alone and anywhere in a batch: the bisected
    # and the witness tuple share a chunk of n = 5, and the n = 3 tuples of
    # the default grid run across a chunk boundary before them; the other
    # orders move every boundary
    grid = [build_testfunction(SystemParams(t.n, t.alpha, t.f0, t.R, t.rho, 1.0),
                               t.xi, t.delta, t.gamma)
            for t in _default_lemma_grid(scenario, CHUNK + 6, 3)]
    tight, witness = (build_testfunction(validate(SystemParams(*system)), xi, delta, gamma)
                      for system, xi, delta, gamma in (_TIGHT_TUPLE, _WITNESS_TUPLE))
    k = CHUNK + 2
    tfs = [*grid[:k], tight, witness, *grid[k:], tight]
    alone = [report for tf in tfs for report in verify_ode_inequality([tf])]
    assert alone[k].n_bisections > 0 and alone[k].passed
    assert alone[k + 1].argmin_cell[0] == alone[k + 1].argmin_cell[1]
    assert not alone[k + 1].passed
    for order in (tfs, tfs[::-1], tfs[3:] + tfs[:3]):
        batch = list(verify_ode_inequality(iter(order)))
        assert len(batch) == len(tfs)
        for tf, report in zip(order, batch):
            _same_report(report, alone[tfs.index(tf)])


@pytest.mark.parametrize("gamma", [20.0, 1e9])
def test_lower_tail_bound_holds_below_the_cover(scenario, gamma):
    tf = build_testfunction(scenario, xi=4.0, delta=0.8, gamma=gamma)
    [report] = verify_ode_inequality([tf])
    lo = report.cells[0, 0]
    s = np.geomspace(lo * 1e-12, lo, 400)
    assert 0.0 < report.lower_tail <= np.min(l_phi_rate(tf, s) - report.k0_rate)
    assert report.lower_tail > report.min_margin


def _iv_rate_bound(tf, a, b):
    """The cell bound of [a, b] below (R-rho)^n, where F = c s^beta, in
    interval arithmetic with exact exponents: the terms at their worse ends,
    no pad."""
    n, d = tf.n, iv.mpf(tf.delta)
    a, b, g = iv.mpf(a), iv.mpf(b), iv.mpf(tf.gamma)
    beta = (n - iv.mpf(tf.alpha)) / n
    c = iv.mpf(tf.f0) / (n - iv.mpf(tf.alpha))

    def m(s):
        return s ** (-iv.mpf(2) / n)

    def rho(s):
        q = iv.mpf(tf.a) * (g * s) ** (-d)
        return q / (q - iv.mpf(tf.b))

    k0_rate = iv.mpf(tf.k0) * g ** (iv.mpf(2) / n)
    fs_a = c * beta * a ** (beta - 1)
    if float(b.b) <= tf.kink:
        C = n * n * (d + 1) - 4 * (n * n - n)  # negative
        return (d * C * rho(b) * m(a) + n * d * rho(a) * c * b ** (beta - 1)
                - n * fs_a - k0_rate)
    return (n * n * g * g * a * a * m(a) - 4 * (n * n - n) * g * b * m(b)
            + n * g * c * a ** beta - n * fs_a - k0_rate)


def _iv_lower_tail(tf, lo):
    """g(lo) of the lower tail, less k0 gamma^(2/n), in interval arithmetic."""
    n, d, g = tf.n, iv.mpf(tf.delta), iv.mpf(tf.gamma)
    lo, alpha = iv.mpf(lo), iv.mpf(tf.alpha)
    beta = (n - alpha) / n
    q = iv.mpf(tf.a) * (g * lo) ** (-d)
    C = n * n * (d + 1) - 4 * (n * n - n)
    return (d * C * q / (q - iv.mpf(tf.b)) * lo ** (-iv.mpf(2) / n)
            + n * iv.mpf(tf.f0) / (n - alpha) * (d - beta) * lo ** (beta - 1)
            - iv.mpf(tf.k0) * g ** (iv.mpf(2) / n))


def test_cell_bounds_hold_under_interval_arithmetic(scenario):
    # cells on both branches below (R-rho)^n: the float bound with its pad
    # lies below the interval enclosure of the same bound in exact arithmetic
    tf = build_testfunction(scenario, xi=4.0, delta=0.8, gamma=14437.1)
    [report] = verify_ode_inequality([tf])
    lo, hi, bound = report.cells.T
    below = np.flatnonzero(hi <= tf.profile.s_lower)
    k = np.searchsorted(hi[below], tf.kink)
    picks = below[[0, 1, k // 2, k - 1, k, k + 1, (k + below.size) // 2, below.size - 1]]
    assert np.any(hi[picks] <= tf.kink) and np.any(lo[picks] >= tf.kink)
    for i in picks:
        exact = _iv_rate_bound(tf, lo[i], hi[i])
        assert bound[i] <= exact.a, i
        # and the pad is a rounding allowance, not a loss of the margin
        assert float(exact.a) - bound[i] <= 1e-9 * abs(float(exact.a)) + 1e3 * CELL_PAD * report.k0_rate
    assert report.lower_tail <= _iv_lower_tail(tf, lo[0]).a


def test_integral_bound_scenario(tf, quad_phi_integral):
    rep = verify_integral_bound(tf)
    assert rep.passed
    assert rep.integral <= rep.bound
    assert rep.bound == pytest.approx(
        (tf.a * 4.0 ** 1.2 / (0.8 * 1.2) + math.exp(-4.0)) / 400.0, rel=1e-14, abs=0.0)
    # the power branch's closed form on its own terms; the exponential
    # branch integrates to e^-xi/gamma^2 = 4.57891e-5
    A = tf.a / 20.0 ** 0.8
    k = 0.2
    inner = (A * k ** 1.2 / 1.2 - tf.b * k * k + tf.b ** 2 / A * k ** 2.8 / 2.8) / 0.8
    assert rep.integral == pytest.approx(inner + math.exp(-4.0) / 400.0, rel=1e-14, abs=0.0)
    assert rep.integral == pytest.approx(quad_phi_integral(tf), rel=1e-12, abs=0.0)
    assert rep.margin == pytest.approx(
        tf.b * k * k / 0.8 * (1.0 - (1.0 - 0.2) / 2.8), rel=1e-14, abs=0.0)


def test_integral_bound_matches_quadrature_oracle(quad_phi_integral):
    """The closed form against adaptive quadrature on a seeded grid over
    n = 3..8, and the cancelled margin against bound - integral."""
    rng = np.random.default_rng(20240808)
    checked = {n: 0 for n in range(3, 9)}
    for n in checked:
        while checked[n] < 8:
            alpha = float(rng.uniform(2.05, n - 0.05))
            R = float(rng.uniform(0.2, 0.9))
            rho = float(rng.uniform(0.05, 0.45) * R)
            f0 = f0_threshold(n, alpha) * float(rng.uniform(1.1, 6.0))
            params = validate(SystemParams(n, alpha, f0, R, rho, 1.0))
            if params.delta_bound >= 1.0:
                continue
            delta = float(params.delta_bound + (1 - params.delta_bound) * rng.uniform(0.1, 0.9))
            xi = float(rng.uniform(4 - 4 / n + 0.02, 4.0))
            gamma = 4.0 / (R - rho) * 2 ** float(rng.uniform(0.1, 12.0))
            tf = build_testfunction(params, xi, delta, gamma)
            rep = verify_integral_bound(tf)
            assert rep.integral == pytest.approx(quad_phi_integral(tf), rel=1e-11, abs=0.0)
            assert rep.margin == pytest.approx(rep.bound - rep.integral, rel=1e-12, abs=0.0)
            assert rep.margin > 0.0 and rep.passed
            checked[n] += 1


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
    with pytest.raises(ParameterError, match=rf"with T = {sol.blow_up_time!r}$"):
        sol(math.log(2.0))
    assert sol.blow_up_time == pytest.approx(math.log(2.0), rel=1e-13, abs=0.0)


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
    # synthetic measured W: linear ramp capped at 1
    sel = select_blowup_params(0.0, 0.1, 1.0, 0.5, scenario, 4.0, 0.8,
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
    with pytest.raises(SelectionError) as err:
        select_blowup_params(0.0, 0.1, 1.0, 0.5, scenario, 4.0, 0.8,
                             w_probe=lambda s: 0.0)
    assert err.value.failing == "measured_w_inequality"
    assert str(err.value) == f"gamma search exceeded cap {GAMMA_CAP}"


def _constant_trajectory(cap=1.0, n=3):
    s = build_mesh(4.0, 128)
    times = (0.0, 0.05, 0.1)
    snaps = tuple(np.where(s > 0, cap, 0.0) for _ in times)
    return Trajectory(s=s, epsilon=1e-2, times=times, snapshots=snaps,
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


@pytest.mark.parametrize("t1, late_w, T, verdict, n_compared", [
    # y(0) = 0.069 and z blows up at T = 0.0925: only t = 0.05 is compared
    (0.0, 1.0, 0.0925, False, 1),   # y stays flat while z doubles: fails at 0.05
    (0.0, 3.0, 0.0925, True, 1),    # y triples by 0.05, above z(0.05) = 2.41 y(0)
    # y(0.05) = 0.207 and z blows up 0.0348 later, before t = 0.1
    (0.05, 3.0, 0.0348, None, 0),
])
def test_y_functional_domination_verdict(scenario, t1, late_w, T, verdict, n_compared):
    # y(t1) = z(t1) by construction, so the verdict counts only the output
    # times strictly between t1 and t1 + T; with none it is None, not a pass
    tf = build_testfunction(scenario, 4.0, 0.8, 20.0)
    flat = _constant_trajectory(cap=3.0)
    snaps = (flat.snapshots[0] / 3.0,) + tuple(w * late_w / 3.0 for w in flat.snapshots[1:])
    traj = Trajectory(s=flat.s, epsilon=1e-2, times=flat.times, snapshots=snaps,
                      far_field=3.0, metadata={"n": 3})
    rep = y_functional(traj, tf, kappa=0.0067, t1=t1)
    assert rep.riccati["T"] == pytest.approx(T, rel=2e-3)
    assert rep.n_compared == n_compared
    assert rep.domination_ok is verdict
    assert rep.first_violation_time == (0.05 if verdict is False else None)
    report = asdict(blowup_indicator(traj, [1.0], y_report=rep))
    assert report["y_functional"]["n_compared"] == n_compared
    assert report["verdicts"]["riccati_domination_ok"] is verdict


@pytest.mark.parametrize("first", [0.5, 0.0])
def test_y_functional_verdict_margins(scenario, first):
    # each verdict's margin, recomputed from the report: the decades by which
    # y(t1) clears the lower bound (null when a side is 0), and the headroom
    # of max y below the cap bound; the verdicts themselves do not change
    tf = build_testfunction(scenario, 4.0, 0.8, 20.0)
    flat = _constant_trajectory(cap=3.0)
    snaps = tuple(w * scale for w, scale in zip(flat.snapshots, (first, 0.8, 0.6)))
    traj = Trajectory(s=flat.s, epsilon=1e-2, times=flat.times, snapshots=snaps,
                      far_field=3.0, metadata={"n": 3})
    rep = y_functional(traj, tf, kappa=0.0067, t1=0.0)
    report = asdict(blowup_indicator(traj, [1.0], y_report=rep))["y_functional"]
    y, lower = report["y"], report["lower_bound_t1"]
    assert report["cap_headroom"] == pytest.approx(1.0 - max(y) / report["cap_bound"],
                                                   rel=1e-15, abs=0.0)
    assert report["cap_headroom"] > 0.2  # max y is 0.8 of a y within the cap
    assert report["cap_ok"] is True and report["lower_ok"] is True
    if first:
        assert report["lower_bound_margin_log10"] == pytest.approx(
            math.log10(y[0] / lower), rel=1e-14, abs=0.0)
    else:  # W = 0 at t1: y(t1) and the bound are both 0
        assert y[0] == lower == 0.0
        assert report["lower_bound_margin_log10"] is None


def test_y_functional_horizon_error(scenario):
    tf = build_testfunction(scenario, 4.0, 0.8, 20.0)
    traj = _constant_trajectory()
    with pytest.raises(ParameterError, match="horizon"):
        y_functional(traj, tf, kappa=0.0067, t1=0.2)


def test_integral_phi_linear_matches_quadrature(scenario):
    tf = build_testfunction(scenario, 4.0, 0.8, 20.0)
    s = build_mesh(4.0, 256)
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
    s = build_mesh(4.0, 256)
    times = (0.0,)
    snaps = (np.minimum(s, 1.0),)
    traj = Trajectory(s=s, epsilon=1e-2, times=times, snapshots=snaps,
                      far_field=1.0, metadata={"n": 3})
    rep = blowup_indicator(traj, [1.0])
    sup = rep.sup_w_over_s_beta[1.0]
    assert sup["value"] == pytest.approx(1.0, rel=1e-12, abs=0.0)  # W0/s = c0 on (0, 1]
    assert sup["t"] == 0.0
    json.dumps(asdict(rep))  # serializable
    with pytest.raises(ParameterError, match="betas"):
        blowup_indicator(traj, [0.5])
