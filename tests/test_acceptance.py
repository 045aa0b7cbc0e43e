"""Acceptance criteria, one test per criterion, each printing a pass line
with its headline numbers.  Tolerances are pinned here, not calibrated."""

import json
import math
import time

import numpy as np
import pytest

from ksblow import (SignalProfile, SolverConfig, SystemParams, TestFnParams,
                    build_mesh, build_testfunction, comparison_check,
                    delta_lower_bound, delta_quadratic, f0_threshold,
                    measured_c_sub, riccati, solve_regularized,
                    subsolution_candidate, validate, verify_integral_bound,
                    verify_ode_inequality, w0_from_density, weak_residual)
from ksblow.cli import main as cli_main
from ksblow.weakform import field_library


def test_criterion_1_feasibility_algebra():
    started = time.perf_counter()
    rng = np.random.default_rng(20240808)
    grid = np.linspace(1e-4, 1.0 - 1e-4, 10_000)
    spacing = grid[1] - grid[0]
    disagreements = 0
    for _ in range(1000):
        n = int(rng.choice([3, 4, 5, 6]))
        alpha = float(rng.uniform(2.01, n - 0.01))
        thr = f0_threshold(n, alpha)
        above = bool(rng.integers(0, 2))
        u = float(rng.uniform(0.01, 10.0)) if above else float(rng.uniform(0.01, 0.99))
        f0 = thr * (1.0 + u) if above else thr * (1.0 - u)
        bound = delta_lower_bound(n, alpha, f0)
        formula_feasible = bound < 1.0
        q = delta_quadratic(n, alpha, f0, grid)
        qualifying = (q > 0.0) & (grid > (n - alpha) / n)
        scan_feasible = bool(np.any(qualifying))
        if formula_feasible != scan_feasible or formula_feasible != above:
            disagreements += 1
            continue
        if formula_feasible:
            first = grid[np.argmax(qualifying)]
            if not (bound - spacing <= first <= bound + 2 * spacing):
                disagreements += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 1: feasibility algebra, 1000 tuples, "
          f"0 disagreements, {elapsed:.1f}s")


def test_criterion_2_testfunction_certification():
    started = time.perf_counter()
    rng = np.random.default_rng(321)
    worst_margin = math.inf
    worst_cont = 0.0
    for _ in range(200):
        n = int(rng.choice([3, 4, 5, 6]))
        alpha = float(rng.uniform(2.05, n - 0.05))
        R = float(rng.uniform(0.2, 0.9))
        rho = float(rng.uniform(0.05, 0.45) * R)
        thr = f0_threshold(n, alpha)
        f0 = thr * float(rng.uniform(1.1, 6.0))
        params = validate(SystemParams(n, alpha, f0, R, rho, 1.0))
        bound = params.delta_bound
        delta = float(bound + (1 - bound) * rng.uniform(0.1, 0.9))
        xi = float(rng.uniform(4 - 4 / n + 0.02, 4.0))
        gamma = 4.0 / (R - rho) * 2 ** float(rng.uniform(0.1, 6.0))
        tf = build_testfunction(params, xi, delta, gamma)

        e = math.exp(-xi)
        cont_val = abs(tf.a / gamma ** delta * (xi / gamma) ** -delta - tf.b - e) / e
        cont_slope = abs(-tf.a * delta / gamma ** delta * (xi / gamma) ** (-delta - 1)
                         + gamma * e) / (gamma * e)
        assert cont_val <= 1e-10 and cont_slope <= 1e-10
        worst_cont = max(worst_cont, cont_val, cont_slope)

        ode = verify_ode_inequality(tf)
        assert ode.n_points >= 9000  # the 1e4 grid minus kink exclusions
        assert ode.min_margin >= -1e-9
        worst_margin = min(worst_margin, ode.min_margin)

        ib = verify_integral_bound(tf)
        assert ib.numeric <= ib.bound * (1.0 + 1e-9)
        assert abs(ib.outer_piece_numeric - ib.outer_piece_closed) \
            <= 1e-8 * ib.outer_piece_closed
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 2: 200 tuples certified, worst margin "
          f"{worst_margin:.3e}, worst continuity {worst_cont:.2e}, {elapsed:.1f}s")


def test_criterion_3_solver_invariants(scenario_sweep):
    sweep = scenario_sweep
    cap = 1.0
    for traj in sweep["trajectories"]:
        for t, w in zip(traj.times, traj.snapshots):
            assert np.min(w) >= -1e-8 * cap
            assert np.max(w) <= cap * (1.0 + 1e-8)
            assert np.min(np.diff(w)) >= -1e-8 * cap
        c_sub = measured_c_sub(traj, sweep["w0"])
        rep = comparison_check(traj, subsolution_candidate(c_sub, sweep["w0"]),
                               tol=1e-6 * cap, s_window=(0.0, 1.0))
        assert rep.passed, (traj.epsilon, rep)
    assert sweep["elapsed"] < 300.0
    print(f"\n[PASS] criterion 3: invariants + subsolution hold on all "
          f"{len(sweep['trajectories'])} runs (N=512, t_end=0.05), "
          f"sweep took {sweep['elapsed']:.1f}s")


def test_criterion_4_epsilon_monotonicity(scenario_sweep):
    sweep = scenario_sweep
    cap = 1.0
    report = sweep["report"]
    assert report.failures == ()
    assert len(report.pair_violations) == 2
    assert report.max_violation <= 1e-6 * cap
    assert sweep["elapsed"] < 900.0
    print(f"\n[PASS] criterion 4: W^eps increases pointwise as eps drops "
          f"(max violation {report.max_violation:.2e} <= 1e-6), "
          f"{sweep['elapsed']:.1f}s")


def test_criterion_5_blowup_trend(scenario_sweep):
    sweep = scenario_sweep
    trajs = sweep["trajectories"]
    slopes = {}
    for traj in trajs:
        k = list(traj.times).index(0.01)
        s = traj.mesh.nodes
        w = traj.snapshots[k]
        probe_cells = (s[:-1] > 0.0) & (s[:-1] <= traj.mesh.s_max / 2.0)
        slopes[traj.epsilon] = float(np.max(np.diff(w)[probe_cells]
                                            / np.diff(s)[probe_cells]))
    factor = slopes[1e-4] / slopes[1e-2]
    assert factor >= 2.0

    for t in (0.005, 0.01, 0.025, 0.05):
        sup = []
        for traj in trajs:
            k = list(traj.times).index(t)
            s = traj.mesh.nodes
            w = traj.snapshots[k]
            probe = (s > 0.0) & (s <= traj.mesh.s_max / 2.0)
            sup.append(float(np.max(w[probe] / s[probe])))
        assert sup[0] <= sup[1] <= sup[2], (t, sup)
    print(f"\n[PASS] criterion 5: slope grows x{factor:.0f} from eps=1e-2 to "
          f"1e-4 at t=0.01 (>= 2); sup W/s monotone across the sweep")


def _rk4_oracle(A, B, y1, t_end):
    """Adaptive-substep RK4 for z' = A z + B z^2, independent of the closed
    form (step size tracks the local rate A + 2 B z)."""
    t, z = 0.0, y1
    while t < t_end:
        h = min(2e-4 / (A + 2.0 * B * z), t_end - t)
        def f(v):
            return A * v + B * v * v
        k1 = f(z)
        k2 = f(z + 0.5 * h * k1)
        k3 = f(z + 0.5 * h * k2)
        k4 = f(z + h * k3)
        z += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return z


def test_criterion_6_riccati_machinery():
    started = time.perf_counter()
    sol = riccati(1.0, 1.0, 1.0, t1=0.0)
    assert abs(sol.blow_up_time - math.log(2.0)) <= 1e-12

    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(100):
        A = float(10 ** rng.uniform(-1, 1))
        B = float(10 ** rng.uniform(-1, 1))
        y1 = float(10 ** rng.uniform(-1, 1))
        z = riccati(A, B, y1, t1=0.0)
        T = z.blow_up_time
        for frac in (0.2, 0.5, 0.9):
            t = frac * T
            rel = abs(_rk4_oracle(A, B, y1, t) - z(t)) / z(t)
            worst = max(worst, rel)
    assert worst <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 6: Riccati closed form vs RK4 worst rel "
          f"{worst:.2e} (<= 1e-8), T(1,1,1)=ln2, {elapsed:.1f}s")


def test_criterion_7_weak_residual_convergence(scenario, scenario_profile):
    started = time.perf_counter()

    def run(N, max_dt, n_out):
        mesh = build_mesh(4.0, N)
        w0 = w0_from_density(1.0, mesh.nodes)
        times = tuple(np.linspace(0.0, 0.05, n_out))
        cfg = SolverConfig(epsilon=1e-2, t_end=0.05, output_times=times,
                           max_dt=max_dt)
        return solve_regularized(scenario, w0, cfg, scenario_profile)

    base = run(256, 2e-5, 65)
    fine = run(512, 1e-5, 129)
    lib = field_library(4.0, 0.05, epsilon=1e-2)
    orders = {}
    for name in ("interior", "initial", "origin_window"):
        rb = weak_residual(base, lib[name], scenario_profile)
        rf = weak_residual(fine, lib[name], scenario_profile)
        orders[name] = math.log2(rb.residual / rf.residual)
        assert orders[name] >= 1.0, (name, orders[name])
    const = weak_residual(fine, lib["constant_state"], scenario_profile)
    assert const.residual <= 1e-8 * const.scale
    const_base = weak_residual(base, lib["constant_state"], scenario_profile)
    assert const_base.residual <= 1e-8 * const_base.scale
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(f"\n[PASS] criterion 7: residual orders "
          f"{ {k: round(v, 2) for k, v in orders.items()} } (all >= 1), "
          f"constant-state rel {const.relative:.1e} (<= 1e-8), {elapsed:.1f}s")


def test_criterion_8_parameter_selection_pipeline(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "blow"
    doc = {
        "system": {"n": 3, "alpha": 2.5, "f0": 2.0, "R": 0.5, "rho": 0.1, "c0": 1.0},
        "test_function": {"xi": 4.0, "delta": 0.8},
        "solver": {"epsilon": 1e-4, "s_max": 4.0, "N": 512, "t_end": 0.1,
                   "output_times": [0.0, 0.01, 0.05, 0.075, 0.1]},
        "blowup": {"t0": 0.0, "eta": 0.1, "betas": [1.0]},
        "output": {"directory": str(out)},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    exit_code = cli_main(["blowup", "--config", str(cfg_path)])
    assert exit_code == 0

    report = json.loads((out / "blowup_report.json").read_text())
    sel = report["selection"]
    kappa, s0, gamma = sel["kappa"], sel["s0"], sel["gamma"]
    diag = sel["diagnostics"]
    n, eta, c0 = 3, 0.1, 1.0

    # kappa saturates k0*eta/8 exactly
    k0 = min((9 * 4.0 - 24.0) * 4.0 ** (1.0 / 3.0),
             delta_quadratic(3, 2.5, 2.0, 0.8) * 4.0 ** (-2.0 / 3.0))
    assert kappa == pytest.approx(k0 * eta / 8.0, rel=1e-14, abs=0.0)

    # the report carries both gamma floors, and gamma respects them
    assert diag["gamma_floor_geometry"] == pytest.approx(10.0, rel=1e-12, abs=0.0)
    assert diag["gamma_floor_kappa"] == pytest.approx((4.0 / kappa) ** 1.5, rel=1e-12, abs=0.0)
    assert gamma > max(diag["gamma_floor_geometry"], diag["gamma_floor_kappa"])
    assert gamma >= max(10.0, 14437.1 * (1.0 - 1e-12))

    # smallness cap on s0 and the cubic-sinh requirement, recomputed here
    s_cap = (2.0 * kappa ** (n / (n - 2.0)) / (3.0 * (n - 2.0))) ** ((n - 2.0) / 2.0)
    assert 0.0 < s0 < s_cap
    K0 = diag["K0"]
    c_sub = sel["c_sub"]
    lhs_sinh = c0 * c_sub * s0 ** 3 * math.sinh(kappa * (kappa / s0) ** (2.0 / (n - 2.0)))
    assert lhs_sinh >= k0 * K0 / kappa * (1.0 - 1e-12)

    # the measured-W inequality at the probe point
    probe_w = diag["probe_w"]
    X = kappa * gamma ** (2.0 / n)
    lhs = math.exp(-2.0 * X) + 2.0 * k0 * K0 * math.exp(-X) / (
        probe_w * gamma ** ((n - 2.0) / n))
    assert lhs <= 1.0
    assert kappa * gamma ** ((2.0 - n) / n) < s0

    # the report's verdicts summarize the finite-epsilon comparison outcome
    assert report["verdicts"]["finite_epsilon_trend"] is True
    assert report["verdicts"]["cap_ok"] is True
    assert report["verdicts"]["lower_bound_ok"] is True

    # every emitted file is declared in the manifest with a matching hash
    import hashlib

    manifest = json.loads((out / "manifest.json").read_text())
    emitted = {str(p.relative_to(out)) for p in out.rglob("*")
               if p.is_file() and p.name != "manifest.json"}
    assert set(manifest["files"]) == emitted
    for rel, digest in manifest["files"].items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(f"\n[PASS] criterion 8: pipeline exit 0, kappa=k0*eta/8={kappa:.8f}, "
          f"gamma={gamma:.0f} (>= 14437.1), s0={s0:.3e} within its cap, "
          f"measured-W inequality lhs={lhs:.2e} <= 1, {elapsed:.1f}s")
