import math

import numpy as np
import pytest
from scipy.integrate import quad

from ksblow import ParameterError, SignalProfile, SystemParams, chi_eval
from ksblow.cli import _default_lemma_grid
from ksblow.quadrature import gauss_legendre
from ksblow.solver import build_mesh

SCEN = dict(f0=2.0, alpha=2.5, R=0.5, rho=0.1, n=3)


@pytest.fixture(scope="module")
def profile():
    return SignalProfile(**SCEN)


def F_s(profile, s):
    """dF/ds = f(s**(1/n))/n: the second part of ``forcing``."""
    return profile.forcing(s)[1]


def quad_F(profile, s):
    """Independent oracle for F: the closed form up to s_lower plus adaptive
    quadrature of the F_s of ``forcing`` from there, at quad's tightest
    tolerance (full output: quad may flag roundoff there, the comparison is
    the check)."""
    n, lo, hi = profile.n, profile.s_lower, profile.s_upper
    head = profile.f0 / (n - profile.alpha) * min(s, lo) ** ((n - profile.alpha) / n)
    if s <= lo:
        return head
    val = quad(lambda x: F_s(profile, x), lo, min(s, hi), epsabs=0.0, epsrel=1.2e-14,
               limit=400, full_output=1)[0]
    return head + val


def test_f_power_law_region(profile):
    assert profile.f(0.2) == pytest.approx(111.8034, rel=1e-6)
    assert profile.f(0.2) == pytest.approx(2.0 * 0.2 ** -2.5, rel=1e-14, abs=0.0)


def test_f_vanishes_past_support(profile):
    assert profile.f(0.7) == 0.0
    assert profile.f(0.6) == 0.0


def test_f_bridge_midpoint(profile):
    # quintic smoothstep is 1/2 at its midpoint
    assert profile.f(0.5) == pytest.approx(2.0 * 0.5 ** -2.5 * 0.5, rel=1e-14, abs=0.0)
    assert profile.f(0.5) == pytest.approx(5.656854, rel=1e-6)


def test_f_domain_error(profile):
    with pytest.raises(ParameterError):
        profile.f(0.0)
    with pytest.raises(ParameterError):
        profile.f(-0.1)


def test_f_monotone_dense(profile):
    r = np.linspace(1e-3, 2.0, 20000)
    vals = profile.f(r)
    scale = vals[0]
    assert np.all(np.diff(vals) <= 1e-12 * scale)


def test_f_bridge_c2_matching(profile):
    # value/derivative/second-derivative continuity at both bridge ends,
    # probed by finite differences across the joints
    h = 1e-6
    for r0 in (0.4, 0.6):
        left = [profile.f(r0 - 2 * h), profile.f(r0 - h)]
        right = [profile.f(r0 + h), profile.f(r0 + 2 * h)]
        jump = abs(right[0] - left[1])
        assert jump <= 4e-5 * max(profile.f(0.4), 1.0)  # ~ |f'| * 2h


def test_F_closed_form_region(profile):
    assert profile.F(0.001) == pytest.approx(4.0 * 0.001 ** (1.0 / 6.0), rel=1e-12, abs=0.0)
    assert profile.F(0.001) == pytest.approx(1.264911, rel=1e-6)
    assert profile.F(0.0) == 0.0


# (profile, query points): the scenario, then the worst bridge endpoint
# ratio (rho -> R/2, ratio -> 3), probed across the bridge and just below
# s_upper; None picks those bridge points
ORACLE_CASES = [(SCEN, (1e-4, 0.01, 0.05, 0.08, 0.1, 0.15, 0.2, 0.215, 0.3, 1.0))]
ORACLE_CASES += [(dict(f0=2.0, alpha=n - 0.5, R=0.5, rho=0.999 * 0.25, n=n), None)
                 for n in (3, 6)]


def test_F_matches_quadrature_oracle():
    for spec, points in ORACLE_CASES:
        prof = SignalProfile(**spec)
        lo, hi = prof.s_lower, prof.s_upper
        if points is None:
            points = [lo * (hi / lo) ** q for q in (0.01, 0.3, 0.7, 0.99)]
            points += [hi * (1.0 - 1e-6), hi * (1.0 - 1e-12)]
        for s in points:
            assert prof.F(s) == pytest.approx(quad_F(prof, s), rel=1e-13, abs=0.0), (spec, s)
        assert prof.F(hi) == pytest.approx(quad_F(prof, hi), rel=1e-13, abs=0.0), spec


def _per_point_F(prof, s):
    """F by the per-point rule: the closed form up to s_lower, else F(s_lower)
    plus the 16-point Gauss-Legendre rule of f(r) r**(n-1) over
    [R - rho, min(s, s_upper)**(1/n)], with the profile's own f."""
    n, alpha, f0 = prof.n, prof.alpha, prof.f0
    out = f0 / (n - alpha) * np.power(s, (n - alpha) / n)
    bridge = s > prof.s_lower
    top = np.power(np.minimum(s[bridge], prof.s_upper), 1.0 / n)
    r, w = gauss_legendre(prof.R - prof.rho, top, 16)
    out[bridge] = (f0 / (n - alpha) * np.power(prof.s_lower, (n - alpha) / n)
                   + np.sum(prof.f(r) * r ** (n - 1) * w, axis=-1))
    return out


@pytest.mark.parametrize("n", range(3, 9))
def test_forcing_is_F_and_F_s_in_one_pass(n):
    # on the scan, the N = 512 mesh and exactly at both bridge ends: F is the
    # per-point rule up to the order of its sum, F_s is f(s**(1/n))/n, bit for
    # bit on the bridge, where it is f at one more node of the rule
    prof = SignalProfile(f0=2.0, alpha=n - 0.5, R=0.5, rho=0.1, n=n)
    s = np.concatenate((np.geomspace(1e-8, 10.0, 10_000), build_mesh(4.0, 512),
                        [prof.s_lower, prof.s_upper]))
    F, Fs = prof.forcing(s)
    ref = _per_point_F(prof, s)
    np.testing.assert_allclose(F, ref, rtol=1e-15, atol=0.0)
    inner = s <= prof.s_lower
    np.testing.assert_array_equal(F[inner], ref[inner])
    np.testing.assert_array_equal(F, prof.F(s))
    below = (s > 0.0) & (s < prof.s_upper)
    np.testing.assert_allclose(Fs[below], prof.f(s[below] ** (1.0 / n)) / n, rtol=1e-14, atol=0.0)
    assert np.all(Fs[s >= prof.s_upper] == 0.0)
    bridge = (s > prof.s_lower) & (s < prof.s_upper)
    np.testing.assert_array_equal(Fs[bridge], prof.f(s[bridge] ** (1.0 / n)) / n)
    assert prof.forcing(prof.s_lower) == (F[-2], Fs[-2])


def test_F_constant_past_upper_breakpoint(profile):
    hi = (profile.R + profile.rho) ** profile.n
    assert hi == pytest.approx(0.216, rel=1e-12, abs=0.0)
    vals = profile.F(np.linspace(hi, 50.0, 100))
    assert np.all(vals == vals[0])
    assert vals[0] == profile.F(hi)
    # a call with one point past s_upper takes the same constant
    assert profile.F(np.array([0.1, 0.2, 1.0]))[2] == vals[0]


def test_forcing_bits_do_not_depend_on_the_other_points():
    # F past s_upper alone and beside a bridge point, bit for bit, on the
    # profiles of the default lemma grid; then a call of 512 bridge points
    # (513 rule columns with s_upper) against each point's call alone
    grid = _default_lemma_grid(SystemParams(3, 2.5, 2.0, 0.5, 0.1, 1.0), 300, 5)
    for t in grid:
        prof = SignalProfile(f0=t.f0, alpha=t.alpha, R=t.R, rho=t.rho, n=t.n)
        mid, far = 0.5 * (prof.s_lower + prof.s_upper), 2.0 * prof.s_upper
        assert prof.F(np.array([far]))[0] == prof.F(np.array([mid, far]))[1], t
    s = np.linspace(prof.s_lower, prof.s_upper, 514)[1:-1]
    F, Fs = prof.forcing(s)
    assert [prof.forcing(x) for x in s] == list(zip(F.tolist(), Fs.tolist()))


def test_F_limit_bound(profile):
    # F(inf) <= f0/(n-alpha) * (R+rho)^(n-alpha): the upper limit of the
    # radial integral with the power law extended across the bridge
    bound = 2.0 / 0.5 * 0.6 ** 0.5
    assert bound == pytest.approx(3.098387, rel=1e-6)
    assert profile.F(profile.s_upper) <= bound


def test_Fs_values(profile):
    assert F_s(profile, 0.001) == pytest.approx((2.0 / 3.0) * 0.001 ** (-5.0 / 6.0),
                                                rel=1e-12, abs=0.0)
    assert F_s(profile, 0.001) == pytest.approx(210.8185, rel=1e-6)
    assert F_s(profile, 0.3) == 0.0
    assert F_s(profile, 0.008) == pytest.approx(profile.f(0.2) / 3.0, rel=1e-14, abs=0.0)
    assert F_s(profile, 0.008) == pytest.approx(37.26780, rel=1e-6)


def test_Fs_is_f_of_root(profile):
    s = np.geomspace(1e-6, 2.0, 500)
    np.testing.assert_allclose(F_s(profile, s), profile.f(s ** (1 / 3)) / 3.0, rtol=1e-14)


def test_Fs_domain_error(profile):
    # F_s is unbounded at 0, where forcing gives nan; below 0 it raises
    assert math.isnan(F_s(profile, 0.0))
    with pytest.raises(ParameterError):
        profile.forcing(-1e-3)


def test_F_monotone_Fs_antitone(profile):
    s = np.geomspace(1e-8, 5.0, 5000)
    F, Fs = profile.forcing(s)
    assert np.all(np.diff(F) >= -1e-14 * F[-1])
    assert np.all(np.diff(Fs) <= 1e-10 * Fs[0])


def test_F_derivative_matches_Fs(profile):
    # central differences of F against F_s away from the two breakpoints
    lo, hi = profile.s_lower, profile.s_upper
    s = np.geomspace(1e-4, 3.0, 400)
    s = s[(np.abs(s - lo) > 0.01) & (np.abs(s - hi) > 0.01)]
    # h large enough that the difference quotient is not cancellation noise
    # where F_s is small, small enough that curvature error stays below 1e-6
    h = 4e-6 * np.maximum(s, 1e-2)
    fd = (profile.F(s + h) - profile.F(s - h)) / (2 * h)
    np.testing.assert_allclose(fd, F_s(profile, s), rtol=1e-6)


def test_cutoff_endpoint_values():
    assert chi_eval(0.2, 0.1) == 0.0
    assert chi_eval(0.2, 0.2) == 1.0
    assert chi_eval(0.2, 0.15) == pytest.approx(0.5, rel=1e-14, abs=0.0)
    assert chi_eval(0.2, 0.0) == 0.0
    assert chi_eval(0.2, 5.0) == 1.0


def test_cutoff_non_decreasing():
    # in s, and pointwise as epsilon decreases: the ordering of the cutoff
    # sweep rests on both
    s = np.linspace(0.0, 0.2, 5001)
    chis = [chi_eval(eps, s) for eps in (1e-1, 1e-2, 1e-3)]
    for chi in chis:
        assert np.all(np.diff(chi) >= 0.0)
    for coarse, fine in zip(chis, chis[1:]):
        assert np.all(fine >= coarse)


def test_direct_construction_validates():
    # a profile built from its numbers checks them; from_params takes a
    # system that validate has passed
    with pytest.raises(ParameterError, match="alpha"):
        SignalProfile(f0=2.0, alpha=3.5, R=0.5, rho=0.1, n=3)
    assert SignalProfile.from_params(SystemParams(3, 2.5, 2.0, 0.5, 0.1, 1.0)) == \
        SignalProfile(f0=2.0, alpha=2.5, R=0.5, rho=0.1, n=3)


def test_zero_forcing_profile():
    prof = SignalProfile(f0=0.0, alpha=2.5, R=0.5, rho=0.1, n=3)
    assert prof.f(0.3) == 0.0
    assert prof.F(10.0) == 0.0
    assert F_s(prof, 0.1) == 0.0
