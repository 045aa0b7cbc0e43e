import numpy as np
import pytest
from scipy.integrate import quad

from ksblow import ParameterError, SignalProfile, chi_eval

SCEN = dict(f0=2.0, alpha=2.5, R=0.5, rho=0.1, n=3)


@pytest.fixture(scope="module")
def profile():
    return SignalProfile(**SCEN)


def quad_F(profile, s):
    """Independent oracle for F: the closed form up to s_lower plus adaptive
    quadrature of the public F_s from there, at quad's tightest tolerance
    (full output: quad may flag roundoff there, the comparison is the check)."""
    n, lo, hi = profile.n, profile.s_lower, profile.s_upper
    head = profile.f0 / (n - profile.alpha) * min(s, lo) ** ((n - profile.alpha) / n)
    if s <= lo:
        return head
    val = quad(profile.F_s, lo, min(s, hi), epsabs=0.0, epsrel=1.2e-14, limit=400,
               full_output=1)[0]
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


# (profile, breakpoints, query points): the scenario, then the worst bridge
# endpoint ratio (rho -> R/2, ratio -> 3) in both modes, probed across the
# bridge and just below s_upper; None picks those bridge points
ORACLE_CASES = [(SCEN, "transformed", (1e-4, 0.01, 0.05, 0.08, 0.1, 0.15, 0.2, 0.215, 0.3, 1.0))]
ORACLE_CASES += [(dict(f0=2.0, alpha=n - 0.5, R=0.5, rho=0.999 * 0.25, n=n), mode, None)
                 for n in (3, 6) for mode in ("transformed", "direct")]


def test_F_matches_quadrature_oracle():
    for spec, mode, points in ORACLE_CASES:
        prof = SignalProfile(**spec, breakpoints=mode)
        lo, hi = prof.s_lower, prof.s_upper
        if points is None:
            points = [lo * (hi / lo) ** q for q in (0.01, 0.3, 0.7, 0.99)]
            points += [hi * (1.0 - 1e-6), hi * (1.0 - 1e-12)]
        for s in points:
            assert prof.F(s) == pytest.approx(quad_F(prof, s), rel=1e-13, abs=0.0), (spec, mode, s)
        assert prof.F_limit == pytest.approx(quad_F(prof, hi), rel=1e-13, abs=0.0), (spec, mode)


def test_F_constant_past_upper_breakpoint(profile):
    hi = (profile.R + profile.rho) ** profile.n
    assert hi == pytest.approx(0.216, rel=1e-12, abs=0.0)
    vals = profile.F(np.linspace(hi, 50.0, 100))
    assert np.all(vals == vals[0])
    assert vals[0] == profile.F_limit


def test_F_limit_bound(profile):
    # F(inf) <= f0/(n-alpha) * (R+rho)^(n-alpha): the upper limit of the
    # radial integral with the power law extended across the bridge
    bound = 2.0 / 0.5 * 0.6 ** 0.5
    assert bound == pytest.approx(3.098387, rel=1e-6)
    assert profile.F_limit <= bound


def test_Fs_values(profile):
    assert profile.F_s(0.001) == pytest.approx((2.0 / 3.0) * 0.001 ** (-5.0 / 6.0),
                                               rel=1e-12, abs=0.0)
    assert profile.F_s(0.001) == pytest.approx(210.8185, rel=1e-6)
    assert profile.F_s(0.3) == 0.0
    assert profile.F_s(0.008) == pytest.approx(profile.f(0.2) / 3.0, rel=1e-14, abs=0.0)
    assert profile.F_s(0.008) == pytest.approx(37.26780, rel=1e-6)


def test_Fs_is_f_of_root(profile):
    s = np.geomspace(1e-6, 2.0, 500)
    np.testing.assert_allclose(profile.F_s(s), profile.f(s ** (1 / 3)) / 3.0, rtol=1e-14)


def test_Fs_domain_error(profile):
    with pytest.raises(ParameterError):
        profile.F_s(0.0)


def test_F_monotone_Fs_antitone(profile):
    s = np.geomspace(1e-8, 5.0, 5000)
    F = profile.F(s)
    Fs = profile.F_s(s)
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
    np.testing.assert_allclose(fd, profile.F_s(s), rtol=1e-6)


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


def test_direct_breakpoints_mode():
    prof = SignalProfile(**SCEN, breakpoints="direct")
    assert prof.s_lower == 0.4 and prof.s_upper == 0.6
    # literal case labels: closed form up to s = R - rho on the s axis
    assert prof.F(0.3) == pytest.approx(4.0 * 0.3 ** (1.0 / 6.0), rel=1e-14, abs=0.0)
    assert prof.F_s(0.3) == pytest.approx((2.0 / 3.0) * 0.3 ** (-5.0 / 6.0), rel=1e-14, abs=0.0)
    assert prof.F_s(0.7) == 0.0
    s = np.geomspace(1e-6, 2.0, 2000)
    assert np.all(np.diff(prof.F(s)) >= -1e-14 * prof.F_limit)
    assert np.all(np.diff(prof.F_s(s)) <= 1e-10 * prof.F_s(s[0]))


def test_zero_forcing_profile():
    prof = SignalProfile(f0=0.0, alpha=2.5, R=0.5, rho=0.1, n=3)
    assert prof.f(0.3) == 0.0
    assert prof.F(10.0) == 0.0
    assert prof.F_s(0.1) == 0.0
