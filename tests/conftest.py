import math

import numpy as np
import pytest

from ksblow import (SignalProfile, SolverConfig, SystemParams, build_mesh,
                    proper_sweep, solve_regularized, validate, w0_from_density)

SCENARIO = SystemParams(n=3, alpha=2.5, f0=2.0, R=0.5, rho=0.1, c0=1.0)


@pytest.fixture(scope="session")
def scenario():
    return validate(SCENARIO)


@pytest.fixture(scope="session")
def scenario_profile(scenario):
    return SignalProfile.from_params(scenario)


@pytest.fixture(scope="session")
def small_run(scenario, scenario_profile):
    """Cheap scenario run for unit-level checks (N=128, eps=1e-2)."""
    s = build_mesh(4.0, 128)
    w0 = w0_from_density(1.0, s)
    cfg = SolverConfig(epsilon=1e-2, t_end=0.02,
                       output_times=(0.0, 0.005, 0.01, 0.02))
    return solve_regularized(scenario, w0, cfg, scenario_profile), w0


@pytest.fixture(scope="session")
def scenario_sweep(scenario, scenario_profile):
    """The acceptance-scale sweep: N=512, eps in {1e-2, 1e-3, 1e-4},
    t_end = 0.05.  Shared by several acceptance criteria."""
    import time

    s = build_mesh(4.0, 512)
    w0 = w0_from_density(1.0, s)
    cfg = SolverConfig(epsilon=1e-2, t_end=0.05,
                       output_times=(0.0, 0.005, 0.01, 0.025, 0.05))
    started = time.perf_counter()
    trajectories, report = proper_sweep(scenario, w0, cfg, (1e-2, 1e-3, 1e-4),
                                        profile=scenario_profile)
    elapsed = time.perf_counter() - started
    return {"trajectories": trajectories, "report": report, "w0": w0,
            "elapsed": elapsed}


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
