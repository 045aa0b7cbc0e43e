import numpy as np
import pytest

from ksblow import (MassFunction, ParameterError, RadialDensity, SignalProfile,
                    SolverConfig, SystemParams, build_mesh, comparison_check,
                    measured_c_sub, proper_sweep, solve_regularized,
                    subsolution_candidate, validate, w0_from_density)


def test_mesh_geometric_identity():
    mesh = build_mesh(1.0, 256, 1.05)
    s1 = 1.0 * (1.05 - 1.0) / (1.05 ** 256 - 1.0)
    assert mesh.nodes[1] == pytest.approx(s1, rel=1e-12)
    assert np.all(np.diff(mesh.nodes) > 0)
    assert mesh.nodes[-1] == 1.0
    assert mesh.nodes[0] == 0.0


def test_mesh_auto_ratio_targets_first_cell():
    mesh = build_mesh(4.0, 512)
    assert mesh.nodes[1] <= 1e-6 * 4.0 * (1 + 1e-9)
    h = np.diff(mesh.nodes)
    assert 1.0 < h[1] / h[0] <= 1.2


def test_mesh_errors():
    with pytest.raises(ParameterError, match="N must be"):
        build_mesh(1.0, 32)
    with pytest.raises(ParameterError, match="ratio"):
        build_mesh(1.0, 128, 1.5)
    with pytest.raises(ParameterError, match="use N >="):
        build_mesh(1.0, 64)  # ratio cap 1.2 cannot reach s1 <= 1e-6 s_max
    # the suggestion in the message is actionable
    try:
        build_mesh(1.0, 64)
    except ParameterError as exc:
        suggested = int(str(exc).rsplit(">=", 1)[1])
        build_mesh(1.0, suggested)


def test_solver_invariants_small(small_run):
    traj, w0 = small_run
    cap = traj.far_field
    for t, w in zip(traj.times, traj.snapshots):
        assert w[0] == 0.0
        assert w[-1] == cap
        assert np.min(w) >= -1e-10 * cap
        assert np.max(w) <= cap * (1.0 + 1e-10)
        assert np.min(np.diff(w)) >= -1e-10 * cap
    assert traj.times == (0.0, 0.005, 0.01, 0.02)


def test_solver_deterministic(scenario, scenario_profile):
    mesh = build_mesh(4.0, 128)
    w0 = w0_from_density(RadialDensity.plateau(1.0), 3, mesh.nodes)
    cfg = SolverConfig(epsilon=1e-2, t_end=0.01, output_times=(0.0, 0.01))
    a = solve_regularized(scenario, w0, cfg, scenario_profile)
    b = solve_regularized(scenario, w0, cfg, scenario_profile)
    for wa, wb in zip(a.snapshots, b.snapshots):
        np.testing.assert_array_equal(wa, wb)


def test_zero_forcing_stays_monotone():
    params = validate(SystemParams(3, 2.5, 0.0, 0.5, 0.1, 1.0))
    profile = SignalProfile.from_params(params)
    mesh = build_mesh(4.0, 128)
    w0 = w0_from_density(RadialDensity.plateau(1.0), 3, mesh.nodes)
    cfg = SolverConfig(epsilon=1e-2, t_end=0.01, output_times=(0.0, 0.01))
    traj = solve_regularized(params, w0, cfg, profile)
    for w in traj.snapshots:
        assert np.min(np.diff(w)) >= -1e-10


def test_epsilon_must_be_resolved(scenario, scenario_profile):
    mesh = build_mesh(4.0, 128)
    w0 = w0_from_density(RadialDensity.plateau(1.0), 3, mesh.nodes)
    cfg = SolverConfig(epsilon=5e-6, t_end=0.01, output_times=(0.01,))
    with pytest.raises(ParameterError, match="not resolved"):
        solve_regularized(scenario, w0, cfg, scenario_profile)


def test_truncation_must_reach_far_field(scenario, scenario_profile):
    mesh = build_mesh(0.5, 128)  # support is the unit ball: cap not reached
    w0 = w0_from_density(RadialDensity.plateau(1.0), 3, mesh.nodes)
    cfg = SolverConfig(epsilon=1e-2, t_end=0.01, output_times=(0.01,))
    with pytest.raises(ParameterError, match="far field"):
        solve_regularized(scenario, w0, cfg, scenario_profile)


def test_comparison_supersolution_cap(small_run):
    traj, _ = small_run
    cap = traj.far_field
    rep = comparison_check(traj, lambda s, t: np.full_like(np.asarray(s, float), cap),
                           kind="super")
    assert rep.passed
    assert rep.worst_margin >= 0.0


def test_comparison_subsolution(small_run):
    traj, w0 = small_run
    c_sub = measured_c_sub(traj, w0)
    assert 0.0 < c_sub <= 1.0
    rep = comparison_check(traj, subsolution_candidate(c_sub, w0), kind="sub",
                           tol=1e-6 * traj.far_field, s_window=(0.0, 1.0))
    assert rep.passed


def test_comparison_detector_sanity(small_run):
    # a fabricated candidate exceeding W somewhere must be flagged there
    traj, _ = small_run
    s = traj.mesh.nodes
    bump_at = s[64]

    def candidate(sq, t):
        sq = np.asarray(sq, float)
        return np.where(np.abs(sq - bump_at) < 1e-12, traj.far_field * 2.0, 0.0)

    rep = comparison_check(traj, candidate, kind="sub")
    assert not rep.passed
    assert rep.worst_margin < -traj.far_field * 0.5
    assert rep.location[0] == pytest.approx(bump_at, rel=1e-12)


def test_comparison_kind_validation(small_run):
    traj, _ = small_run
    with pytest.raises(ParameterError, match="kind"):
        comparison_check(traj, lambda s, t: np.zeros_like(np.asarray(s, float)),
                         kind="above")


def test_sweep_single_epsilon_trivial_report(scenario, scenario_profile):
    mesh = build_mesh(4.0, 128)
    w0 = w0_from_density(RadialDensity.plateau(1.0), 3, mesh.nodes)
    cfg = SolverConfig(epsilon=1e-2, t_end=0.005, output_times=(0.0, 0.005))
    trajs, report = proper_sweep(scenario, w0, cfg, [1e-2], profile=scenario_profile)
    assert len(trajs) == 1
    assert report.pair_violations == ()
    assert report.max_violation == 0.0


def test_sweep_determinism_same_epsilon(scenario, scenario_profile):
    mesh = build_mesh(4.0, 128)
    w0 = w0_from_density(RadialDensity.plateau(1.0), 3, mesh.nodes)
    cfg = SolverConfig(epsilon=1e-2, t_end=0.005, output_times=(0.0, 0.005))
    t1, _ = proper_sweep(scenario, w0, cfg, [1e-2], profile=scenario_profile)
    t2, _ = proper_sweep(scenario, w0, cfg, [1e-2], profile=scenario_profile)
    for wa, wb in zip(t1[0].snapshots, t2[0].snapshots):
        np.testing.assert_array_equal(wa, wb)


def test_sweep_rejects_non_decreasing(scenario, scenario_profile):
    mesh = build_mesh(4.0, 128)
    w0 = w0_from_density(RadialDensity.plateau(1.0), 3, mesh.nodes)
    cfg = SolverConfig(epsilon=1e-2, t_end=0.005, output_times=(0.005,))
    with pytest.raises(ParameterError, match="decreasing"):
        proper_sweep(scenario, w0, cfg, [1e-3, 1e-2], profile=scenario_profile)
    with pytest.raises(ParameterError, match="decreasing"):
        proper_sweep(scenario, w0, cfg, [1e-2, 1e-2], profile=scenario_profile)


def test_sweep_isolates_failed_runs(scenario, scenario_profile, monkeypatch):
    # a run that dies is recorded as a failure; the remaining runs complete
    import ksblow.solver as solver_mod
    from ksblow.errors import SolverError

    real = solver_mod.solve_regularized

    def flaky(params, w0, config, profile=None):
        if config.epsilon == 2e-2:
            raise SolverError("synthetic failure", location=(0.1, 0.0))
        return real(params, w0, config, profile)

    monkeypatch.setattr(solver_mod, "solve_regularized", flaky)
    mesh = build_mesh(4.0, 128)
    w0 = w0_from_density(RadialDensity.plateau(1.0), 3, mesh.nodes)
    cfg = SolverConfig(epsilon=1e-2, t_end=0.005, output_times=(0.0, 0.005))
    trajs, report = proper_sweep(scenario, w0, cfg, [4e-2, 2e-2, 1e-2],
                                 profile=scenario_profile)
    assert [t.epsilon for t in trajs] == [4e-2, 1e-2]
    assert report.failures == ((2e-2, "synthetic failure"),)


def test_refinement_stability(scenario, scenario_profile):
    # halving dt and doubling N shrinks the probe change by a factor >= 1.5
    probes = [(0.3, 0.02), (0.7, 0.02)]
    runs = []
    for N, max_dt in ((96, 4e-5), (192, 2e-5), (384, 1e-5)):
        mesh = build_mesh(4.0, N)
        w0 = w0_from_density(RadialDensity.plateau(1.0), 3, mesh.nodes)
        cfg = SolverConfig(epsilon=1e-2, t_end=0.02, output_times=(0.0, 0.02),
                           max_dt=max_dt)
        runs.append(solve_regularized(scenario, w0, cfg, scenario_profile))
    for s_probe, t_probe in probes:
        v = [traj.w_at(s_probe, t_probe) for traj in runs]
        d1 = abs(v[1] - v[0])
        d2 = abs(v[2] - v[1])
        assert d1 >= 1.5 * d2, (s_probe, d1, d2)


def test_trajectory_accessors(small_run):
    traj, _ = small_run
    mf = traj.snapshot_at(0.01)
    assert isinstance(mf, MassFunction)
    assert mf.time == 0.01
    mf.validate()
    with pytest.raises(ParameterError, match="no snapshot"):
        traj.snapshot_at(0.123)
