import math
from typing import NamedTuple

import numpy as np
import pytest

from ksblow import (SignalProfile, SolverSection, SystemParams, proper_sweep,
                    solve_regularized, validate, w0_from_density)

SCENARIO = SystemParams(n=3, alpha=2.5, f0=2.0, R=0.5, rho=0.1, c0=1.0)


@pytest.fixture(scope="session")
def scenario():
    return validate(SCENARIO)


@pytest.fixture(scope="session")
def scenario_profile(scenario):
    return SignalProfile.from_params(scenario)


@pytest.fixture(scope="session")
def small_run(scenario, scenario_profile):
    """Cheap scenario run for unit-level checks (N=128, eps=1e-2), with its
    initial datum on its mesh."""
    cfg = SolverSection(s_max=4.0, N=128, epsilon=1e-2, t_end=0.02,
                        output_times=(0.0, 0.005, 0.01, 0.02))
    traj = solve_regularized(scenario, cfg, scenario_profile)
    return traj, w0_from_density(1.0, traj.s)


@pytest.fixture(scope="session")
def scenario_sweep(scenario, scenario_profile):
    """The acceptance-scale sweep: N=512, eps in {1e-2, 1e-3, 1e-4},
    t_end = 0.05.  Shared by several acceptance criteria."""
    import time

    cfg = SolverSection(s_max=4.0, N=512, eps_list=(1e-2, 1e-3, 1e-4), t_end=0.05,
                        output_times=(0.0, 0.005, 0.01, 0.025, 0.05))
    started = time.perf_counter()
    trajectories, report = proper_sweep(scenario, cfg, scenario_profile)
    elapsed = time.perf_counter() - started
    return {"trajectories": trajectories, "report": report,
            "w0": w0_from_density(1.0, trajectories[0].s), "elapsed": elapsed}


@pytest.fixture(scope="session")
def quad_phi_integral():
    """Adaptive-quadrature oracle for integral phi^2/|phi_s| ds over (0, inf),
    independent of the closed form in ``verify_integral_bound``."""
    from scipy.integrate import quad

    def integral(tf):
        A = tf.a / tf.gamma ** tf.delta
        d, b = tf.delta, tf.b
        # (A s^-d - b)^2 / (A d s^(-d-1)) expanded so no factor overflows near 0
        inner = quad(lambda s: (A * s ** (1.0 - d) - 2.0 * b * s
                                + b * b / A * s ** (1.0 + d)) / d,
                     0.0, tf.kink, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        # the exponential branch in u = gamma s, free of the gamma scale
        outer = quad(lambda u: math.exp(-u), tf.xi, math.inf,
                     epsabs=0.0, epsrel=1e-12, limit=200)[0]
        return inner + outer / tf.gamma ** 2

    return integral


@pytest.fixture(scope="session")
def assert_mass_function():
    """Oracle for the invariants of a sampled mass function: W(0) = 0 and
    W <= far_field up to 1e-10, and a non-decreasing profile up to 1e-8, both
    relative to max(far_field, 1)."""

    def check(mf):
        scale = max(mf.far_field, 1.0)
        assert abs(mf.w[0]) <= 1e-10 * scale, f"W(0) = {mf.w[0]!r} must vanish"
        assert np.min(np.diff(mf.w)) >= -1e-8 * scale, "W must be non-decreasing"
        assert np.max(mf.w) <= mf.far_field * (1.0 + 1e-10), "W exceeds its far-field cap"

    return check


class ComparisonReport(NamedTuple):
    worst_margin: float
    location: tuple             # (s, t) of the worst margin
    tolerance: float
    passed: bool


@pytest.fixture(scope="session")
def comparison_check():
    """Oracle that checks a trajectory against a subsolution candidate.

    ``candidate(s_array, t)`` evaluates the comparison function on the mesh;
    the run must dominate it (W >= candidate - tol) at every output time,
    over the nodes in ``s_window`` when it is given."""

    def check(traj, candidate, tol=0.0, s_window=None):
        s = traj.s
        mask = np.ones_like(s, dtype=bool)
        if s_window is not None:
            mask = (s >= s_window[0]) & (s <= s_window[1])
        worst = math.inf
        where = (math.nan, math.nan)
        for t, w in zip(traj.times, traj.snapshots):
            margin = (w - np.asarray(candidate(s, t), dtype=float))[mask]
            i = int(np.argmin(margin))
            if margin[i] < worst:
                worst = float(margin[i])
                where = (float(s[mask][i]), t)
        return ComparisonReport(worst_margin=worst, location=where, tolerance=tol,
                                passed=worst >= -tol)

    return check


@pytest.fixture(scope="session")
def subsolution_candidate():
    """The candidate c_sub * s^2 * W0(s) of ``comparison_check``, valid on
    the unit interval in s."""

    def candidate_for(c_sub, w0):
        def candidate(s, _t):
            return c_sub * np.asarray(s) ** 2 * np.interp(s, w0.s, w0.w)

        return candidate

    return candidate_for
