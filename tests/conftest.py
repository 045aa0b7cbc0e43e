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
    mesh = build_mesh(4.0, 128)
    w0 = w0_from_density(1.0, mesh.nodes)
    cfg = SolverConfig(epsilon=1e-2, t_end=0.02,
                       output_times=(0.0, 0.005, 0.01, 0.02))
    return solve_regularized(scenario, w0, cfg, scenario_profile), w0


@pytest.fixture(scope="session")
def scenario_sweep(scenario, scenario_profile):
    """The acceptance-scale sweep: N=512, eps in {1e-2, 1e-3, 1e-4},
    t_end = 0.05.  Shared by several acceptance criteria."""
    import time

    mesh = build_mesh(4.0, 512)
    w0 = w0_from_density(1.0, mesh.nodes)
    cfg = SolverConfig(epsilon=1e-2, t_end=0.05,
                       output_times=(0.0, 0.005, 0.01, 0.025, 0.05))
    started = time.perf_counter()
    trajectories, report = proper_sweep(scenario, w0, cfg, (1e-2, 1e-3, 1e-4),
                                        profile=scenario_profile)
    elapsed = time.perf_counter() - started
    return {"trajectories": trajectories, "report": report, "w0": w0,
            "elapsed": elapsed}
