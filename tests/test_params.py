import math

import numpy as np
import pytest

from ksblow import (ParameterError, SystemParams, TestFnParams, default_testfn_params,
                    delta_lower_bound, delta_quadratic, f0_threshold, h_value,
                    sphere_area, validate)


def test_threshold_values():
    assert f0_threshold(3, 2.5) == pytest.approx(1.2, rel=1e-14, abs=0.0)
    assert f0_threshold(4, 3.0) == pytest.approx(16.0 / 3.0, rel=1e-14, abs=0.0)
    # alpha -> n forces the threshold to zero
    assert f0_threshold(3, 2.999) == pytest.approx(2 * 3 / 2.999 * 1 * 0.001, rel=1e-12, abs=0.0)
    assert f0_threshold(3, 2.999) == pytest.approx(0.0020007, rel=1e-4)


def test_threshold_domain_errors():
    with pytest.raises(ParameterError, match="alpha"):
        f0_threshold(3, 2.0)
    with pytest.raises(ParameterError, match="alpha"):
        f0_threshold(3, 3.0)
    with pytest.raises(ParameterError, match="n"):
        f0_threshold(2, 1.5)


def test_h_values():
    assert h_value(3, 2.5, 2.0) == pytest.approx(0.5, rel=1e-14, abs=0.0)
    assert h_value(3, 2.5, 2.5) == 0.0
    assert h_value(4, 3.0, 1.0) == pytest.approx(7.0, rel=1e-14, abs=0.0)


def test_delta_lower_bound_values():
    assert delta_lower_bound(3, 2.5, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-14, abs=0.0)
    # boundary f0 = threshold gives exactly 1: strictness of the amplitude condition
    assert delta_lower_bound(3, 2.5, 1.2) == pytest.approx(1.0, rel=1e-13, abs=0.0)
    assert delta_lower_bound(3, 2.5, 100.0) == pytest.approx(0.1704929731877627,
                                                             rel=1e-13, abs=0.0)
    assert delta_lower_bound(3, 2.5, 100.0) == pytest.approx(0.170497, rel=5e-5)
    # the first max-argument is not always dominated by a wide margin
    assert delta_lower_bound(3, 2.5, 100.0) > (3 - 2.5) / 3


def test_second_argument_is_quadratic_root():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.choice([3, 4, 5, 6]))
        alpha = float(rng.uniform(2.05, n - 0.05))
        f0 = float(10 ** rng.uniform(-1, 2.5))
        h = h_value(n, alpha, f0)
        root = (h + math.sqrt(h * h + 4 * f0 * (n - alpha) ** 2)) / (2 * n * (n - alpha))
        # scale of the quadratic near the root
        scale = n * n * root * root + abs(n * f0 / (n - alpha) - 3 * n * n + 4 * n) * root + f0
        assert abs(delta_quadratic(n, alpha, f0, root)) <= 1e-12 * scale


def test_feasibility_equivalence_sampled():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.choice([3, 4, 5, 6]))
        alpha = float(rng.uniform(2.01, n - 0.01))
        thr = f0_threshold(n, alpha)
        above = thr * (1.0 + float(rng.uniform(0.01, 10.0)))
        below = thr * (1.0 - float(rng.uniform(0.01, 0.99)))
        assert delta_lower_bound(n, alpha, above) < 1.0
        assert delta_lower_bound(n, alpha, below) >= 1.0


def test_delta_bound_monotone_in_f0():
    rng = np.random.default_rng(17)
    violations = []
    for _ in range(50):
        n = int(rng.choice([3, 4, 5, 6]))
        alpha = float(rng.uniform(2.05, n - 0.05))
        f0_grid = np.geomspace(0.05, 50.0, 80)
        bounds = [delta_lower_bound(n, alpha, f) for f in f0_grid]
        drops = np.diff(bounds)
        if np.any(drops > 1e-12):
            violations.append((n, alpha, float(np.max(drops))))
    assert violations == []


def test_validate_scenario(scenario):
    assert scenario.feasible
    assert scenario.threshold == pytest.approx(1.2, rel=1e-14, abs=0.0)


def test_validate_boundary_exclusions():
    with pytest.raises(ParameterError, match="rho must be < R/2"):
        validate(SystemParams(3, 2.5, 2.0, 0.5, 0.25, 1.0))
    with pytest.raises(ParameterError, match="alpha must exceed 2"):
        validate(SystemParams(3, 2.0, 2.0, 0.5, 0.1, 1.0))
    with pytest.raises(ParameterError, match="R"):
        validate(SystemParams(3, 2.5, 2.0, 1.5, 0.1, 1.0))
    with pytest.raises(ParameterError, match="c0"):
        validate(SystemParams(3, 2.5, 2.0, 0.5, 0.1, -1.0))


def test_validate_collects_all_violations():
    try:
        validate(SystemParams(3, 2.0, -1.0, 0.5, 0.3, 1.0))
    except ParameterError as exc:
        fields = [f for f, _, _ in exc.violations]
        assert "alpha" in fields and "f0" in fields and "rho" in fields
    else:
        raise AssertionError("expected a ParameterError")


def test_zero_forcing_is_valid_but_infeasible():
    p = validate(SystemParams(3, 2.5, 0.0, 0.5, 0.1, 1.0))
    assert not p.feasible


def test_geometry_helpers():
    assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14, abs=0.0)
    assert sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-14, abs=0.0)


def test_testfn_params_validation(scenario):
    TestFnParams(xi=4.0, delta=0.8, gamma=20.0).validate_for(scenario)
    with pytest.raises(ParameterError, match="gamma"):
        TestFnParams(xi=4.0, delta=0.8, gamma=9.0).validate_for(scenario)  # 4/(R-rho) = 10
    with pytest.raises(ParameterError, match="delta"):
        TestFnParams(xi=4.0, delta=0.6, gamma=20.0).validate_for(scenario)
    with pytest.raises(ParameterError, match="xi"):
        TestFnParams(xi=2.0, delta=0.8, gamma=20.0).validate_for(scenario)


def test_default_testfn_params(scenario):
    tf = default_testfn_params(scenario)
    assert tf.xi == 4.0
    assert tf.delta == pytest.approx(0.5 * (2.0 / 3.0 + 1.0), rel=1e-14, abs=0.0)
    assert tf.gamma > 4.0 / (scenario.R - scenario.rho)
    with pytest.raises(ParameterError, match="threshold"):
        default_testfn_params(SystemParams(3, 2.5, 1.0, 0.5, 0.1, 1.0))
