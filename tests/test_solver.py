import itertools
import math
import os
import re
import sys
from dataclasses import replace
from importlib.metadata import version

import numpy as np
import pytest

from ksblow import (MassFunction, ParameterError, SignalProfile, SolverError, SolverSection,
                    SystemParams, build_mesh, measured_c_sub, proper_sweep, solve_regularized,
                    validate, w0_from_density)
from ksblow.solver import _load_flapack, _march, cap_cfl_bound


def test_mesh_geometric_identity():
    s = build_mesh(1.0, 256, 1.05)
    s1 = 1.0 * (1.05 - 1.0) / (1.05 ** 256 - 1.0)
    assert s[1] == pytest.approx(s1, rel=1e-12, abs=0.0)
    assert np.all(np.diff(s) > 0)
    assert s[-1] == 1.0
    assert s[0] == 0.0


def test_mesh_auto_ratio_targets_first_cell():
    s = build_mesh(4.0, 512)
    assert s[1] <= 1e-6 * 4.0 * (1 + 1e-9)
    h = np.diff(s)
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
    cfg = SolverSection(s_max=4.0, N=128, epsilon=1e-2, t_end=0.01, output_times=(0.0, 0.01))
    a = solve_regularized(scenario, cfg, scenario_profile)
    b = solve_regularized(scenario, cfg, scenario_profile)
    for wa, wb in zip(a.snapshots, b.snapshots):
        np.testing.assert_array_equal(wa, wb)


# per run: the sha256 of each row's snapshot bytes, n_steps, n_factorizations
# and the (t, s, dt) of each CFL reset
_PINNED = {
    None: (["b005b6fba55f2cac09af53205a85a2e36deefc55cbd650a11ec485b208824e3e"], 313, 2,
           [(0.0, 0.009102815325516257, 6.447603741737563e-05),
            (0.011096092636095385, 0.009102815325516257, 6.382847406526026e-05)]),
    6.4e-5: (["274f9abf2efffe9b3de1b429b1d2f03487ec505e87cd022757711cbfc3e45d82"], 315, 2,
             [(0.01825600000000005, 0.009102815325516257, 6.335760096094694e-05)]),
    "sweep": (["6c9aecb31648ce01759766b77fe506c684607f513e5999cb560857e1feff2ba0",
               "17d9069e957cc047fc858722ad547b851a4056703bd3ebf4f58ddaa7da830598",
               "13fa6679f160d877ff47a84e473eecea6f2924a838177114988e9f5a2f58e118"], 363, 1, []),
}


@pytest.mark.parametrize("run", list(_PINNED))
def test_march_bits_are_pinned(scenario, scenario_profile, run):
    # an adaptive run (N = 128) without and with a max_dt that binds until
    # the CFL limit falls below it, and a 3-cutoff sweep: a change to the
    # step loop that claims the same bits must reproduce these exactly
    import hashlib

    outputs = (0.0, 0.005, 0.01, 0.02) if run != "sweep" else (0.0, 0.005, 0.02)
    cfg = SolverSection(s_max=4.0, N=128, epsilon=1e-2, t_end=0.02, output_times=outputs,
                        max_dt=run if run != "sweep" else None)
    if run == "sweep":
        trajs, report = proper_sweep(scenario, replace(cfg, eps_list=(4e-2, 2e-2, 1e-2)),
                                     scenario_profile)
        assert report.failures == ()
    else:
        trajs = [solve_regularized(scenario, cfg, scenario_profile)]
    digests, n_steps, n_factorizations, resets = _PINNED[run]
    assert [hashlib.sha256(b"".join(w.tobytes() for w in traj.snapshots)).hexdigest()
            for traj in trajs] == digests
    for traj in trajs:
        meta = traj.metadata
        assert (meta["n_steps"], meta["n_factorizations"]) == (n_steps, n_factorizations)
        assert [(r["t"], r["s"], r["dt"]) for r in meta["cfl_resets"]] == resets


def test_zero_forcing_stays_monotone():
    params = validate(SystemParams(3, 2.5, 0.0, 0.5, 0.1, 1.0))
    profile = SignalProfile.from_params(params)
    cfg = SolverSection(s_max=4.0, N=128, epsilon=1e-2, t_end=0.01, output_times=(0.0, 0.01))
    traj = solve_regularized(params, cfg, profile)
    for w in traj.snapshots:
        assert np.min(np.diff(w)) >= -1e-10


def test_epsilon_must_be_resolved(scenario, scenario_profile):
    cfg = SolverSection(s_max=4.0, N=128, epsilon=5e-6, t_end=0.01, output_times=(0.01,))
    with pytest.raises(ParameterError, match="not resolved"):
        solve_regularized(scenario, cfg, scenario_profile)


def test_truncation_must_reach_far_field(scenario, scenario_profile):
    # the datum's support is the unit ball, so a truncation short of s = 4
    # is refused before W0 is built on it
    cfg = SolverSection(s_max=0.5, N=128, epsilon=1e-2, t_end=0.01, output_times=(0.01,))
    with pytest.raises(ParameterError, match=r"^s_max must be >= 4 \(got 0\.5\)"):
        solve_regularized(scenario, cfg, scenario_profile)


@pytest.mark.parametrize("t_end, times", [(0.0, (0.0,)), (-1.0, ()), (math.nan, ())])
def test_horizon_must_be_positive(scenario, scenario_profile, t_end, times):
    # a direct solve, without the CLI's own check of solver.t_end
    with pytest.raises(ParameterError, match=r"^t_end must be > 0"):
        solve_regularized(scenario, SolverSection(s_max=4.0, N=128, epsilon=1e-2, t_end=t_end,
                                                  output_times=times), scenario_profile)


def test_comparison_subsolution(small_run, comparison_check, subsolution_candidate):
    traj, w0 = small_run
    c_sub = measured_c_sub(traj, w0)
    assert 0.0 < c_sub <= 1.0
    rep = comparison_check(traj, subsolution_candidate(c_sub, w0),
                           tol=1e-6 * traj.far_field, s_window=(0.0, 1.0))
    assert rep.passed


def test_comparison_detector_sanity(small_run, comparison_check):
    # a fabricated candidate exceeding W somewhere must be flagged there
    traj, _ = small_run
    s = traj.s
    bump_at = s[64]

    def candidate(sq, t):
        sq = np.asarray(sq, float)
        return np.where(np.abs(sq - bump_at) < 1e-12, traj.far_field * 2.0, 0.0)

    rep = comparison_check(traj, candidate)
    assert not rep.passed
    assert rep.worst_margin < -traj.far_field * 0.5
    assert rep.location[0] == pytest.approx(bump_at, rel=1e-12, abs=0.0)


def test_sweep_single_epsilon_trivial_report(scenario, scenario_profile):
    cfg = SolverSection(s_max=4.0, N=128, eps_list=(1e-2,), t_end=0.005,
                        output_times=(0.0, 0.005))
    trajs, report = proper_sweep(scenario, cfg, scenario_profile)
    assert len(trajs) == 1
    assert report.pair_violations == ()
    assert report.max_violation == 0.0


def test_sweep_determinism_same_epsilon(scenario, scenario_profile):
    cfg = SolverSection(s_max=4.0, N=128, eps_list=(1e-2,), t_end=0.005,
                        output_times=(0.0, 0.005))
    t1, _ = proper_sweep(scenario, cfg, scenario_profile)
    t2, _ = proper_sweep(scenario, cfg, scenario_profile)
    for wa, wb in zip(t1[0].snapshots, t2[0].snapshots):
        np.testing.assert_array_equal(wa, wb)


def test_sweep_checks_every_cutoff_before_any_step(scenario, scenario_profile,
                                                   monkeypatch):
    import ksblow.solver as solver_mod

    def no_solve(*_args):
        raise AssertionError("stepped before every cutoff was checked")

    monkeypatch.setattr(solver_mod, "solve_banded", no_solve)
    cfg = SolverSection(s_max=4.0, N=128, eps_list=(1e-2, 5e-6), t_end=0.005,
                        output_times=(0.005,))
    with pytest.raises(ParameterError, match=r"^eps_list: 5e-06 is not resolved by the mesh"):
        proper_sweep(scenario, cfg, scenario_profile)


def test_sweep_rejects_non_decreasing(scenario, scenario_profile):
    cfg = SolverSection(s_max=4.0, N=128, t_end=0.005, output_times=(0.005,))
    with pytest.raises(ParameterError, match="decreasing"):
        proper_sweep(scenario, replace(cfg, eps_list=(1e-3, 1e-2)), scenario_profile)
    with pytest.raises(ParameterError, match="decreasing"):
        proper_sweep(scenario, replace(cfg, eps_list=(1e-2, 1e-2)), scenario_profile)


def _assert_same_run(a, b):
    """``a`` and ``b`` are the same run, bit for bit: snapshots, times, step
    and factorization counts, step-size history and logged violations."""
    assert a.epsilon == b.epsilon
    assert a.times == b.times
    assert len(a.snapshots) == len(b.snapshots)
    for wa, wb in zip(a.snapshots, b.snapshots):
        assert wa.tobytes() == wb.tobytes()
    for key in ("n_steps", "n_factorizations", "cfl_resets", "dt_history", "violations"):
        assert a.metadata[key] == b.metadata[key], key


def _shared_dt(scenario_profile, s, w0, eps_list):
    from ksblow.signal import chi_eval

    return min(cap_cfl_bound(np.diff(s), chi_eval(eps, s), 3 * scenario_profile.F(s),
                             w0.far_field, 0.4) for eps in eps_list)


def test_sweep_rows_match_solo_runs(scenario, scenario_profile):
    # the stack marches each cutoff as its own run would, clipped steps too
    s = build_mesh(4.0, 128)
    w0 = w0_from_density(1.0, s)
    eps_list = (1e-2, 1e-3, 1e-4)
    dt = _shared_dt(scenario_profile, s, w0, eps_list)
    cfg = SolverSection(s_max=4.0, N=128, eps_list=eps_list, t_end=0.002,
                        output_times=(0.0, 0.0013, 0.002))
    trajs, report = proper_sweep(scenario, cfg, scenario_profile)
    assert report.failures == ()
    assert [t.epsilon for t in trajs] == list(eps_list)
    for traj in trajs:
        # its solo run on the shared grid: a sweep of one capped at the shared dt
        (solo,), _ = proper_sweep(scenario, replace(cfg, eps_list=(traj.epsilon,), max_dt=dt),
                                  scenario_profile)
        assert solo.metadata["dt_history"]["max"] == dt
        assert solo.metadata["dt_history"]["min"] < dt  # steps were clipped
        assert traj.metadata["n_factorizations"] == 1  # the shared dt, once
        _assert_same_run(traj, solo)


def _nan_in_column(monkeypatch, column, at_call):
    """Wrap the solver's solve_banded so that its ``at_call``-th solve puts a
    NaN at node 40 of the given column (or list of columns) of its (N+1, k)
    solution, before the step's invariant check; returns the list of the
    solves' shapes.  A sweep
    sees one usable CPU, so its k columns are one solve in this process."""
    import ksblow.solver as solver_mod

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    real = solver_mod.solve_banded
    calls = []

    def solve_banded(matrix, rhs):
        x = real(matrix, rhs)
        calls.append(x.shape)
        if len(calls) == at_call:
            x[40, column] = np.nan
        return x

    monkeypatch.setattr(solver_mod, "solve_banded", solve_banded)
    return calls


def test_sweep_isolates_failed_runs(scenario, scenario_profile, monkeypatch):
    # a run that dies mid-march is recorded as a failure and ends the march;
    # the remaining runs march again without it, each as its solo run would
    s = build_mesh(4.0, 128)
    w0 = w0_from_density(1.0, s)
    eps_list = (4e-2, 2e-2, 1e-2)
    cfg = SolverSection(s_max=4.0, N=128, eps_list=eps_list, t_end=0.005,
                        output_times=(0.0, 0.005),
                        max_dt=0.9 * _shared_dt(scenario_profile, s, w0, eps_list))
    solo = [proper_sweep(scenario, replace(cfg, eps_list=(eps,)), scenario_profile)[0][0]
            for eps in eps_list]
    calls = _nan_in_column(monkeypatch, 1, at_call=5)
    trajs, report = proper_sweep(scenario, cfg, scenario_profile)
    assert [t.epsilon for t in trajs] == [4e-2, 1e-2]
    (eps, message), = report.failures
    assert eps == 2e-2
    assert message.startswith(f"monotonicity violated by nan at s = {s[39]}, t = ")
    assert calls[0] == (129, 3) and calls[-1] == (129, 2)  # a stack of the two
    _assert_same_run(trajs[0], solo[0])
    _assert_same_run(trajs[1], solo[2])


def test_rows_failing_on_the_same_step(scenario, scenario_profile, monkeypatch):
    # two rows of a stack fail on its third step: both failures come back,
    # in epsilon order, and the row between them marches again alone, as
    # its row of the sweep without failures, bit for bit
    cfg = SolverSection(s_max=4.0, N=128, eps_list=(4e-2, 2e-2, 1e-2), t_end=0.003,
                        output_times=(0.0, 0.0013, 0.003))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    clean, _ = proper_sweep(scenario, cfg, scenario_profile)
    calls = _nan_in_column(monkeypatch, [0, 2], at_call=3)
    (traj,), report = proper_sweep(scenario, cfg, scenario_profile)
    assert [eps for eps, _ in report.failures] == [4e-2, 1e-2]
    assert all(message.startswith(f"monotonicity violated by nan at s = {traj.s[39]}, t = ")
               for _, message in report.failures)
    _assert_same_run(traj, clean[1])
    assert {**traj.metadata, "wall_time_s": None} == {**clean[1].metadata, "wall_time_s": None}
    assert calls[2] == (129, 3) and calls[3] == (129,)


def test_step_underflow_fails_every_row(scenario, scenario_profile):
    # a step below the floor ends the march at t = 0: a single run raises,
    # and every row of a stack leaves it as a failure, none as a trajectory
    cfg = SolverSection(s_max=4.0, N=128, epsilon=4e-2, t_end=0.002,
                        output_times=(0.0, 0.001, 0.002), cfl_safety=1e-300)
    with pytest.raises(SolverError, match=r"^step-size underflow: dt = ") as info:
        solve_regularized(scenario, cfg, scenario_profile)
    assert info.value.location == (None, 0.0)
    trajs, report = proper_sweep(scenario, replace(cfg, eps_list=(4e-2, 1e-2)),
                                 scenario_profile)
    assert trajs == []
    assert [eps for eps, _ in report.failures] == [4e-2, 1e-2]
    assert all(message.startswith("step-size underflow: dt = ")
               for _, message in report.failures)
    assert report.pair_violations == () and report.max_violation == 0.0


_BLOCK_EPS = [4e-2, 3e-2, 2e-2, 1.5e-2, 1e-2, 5e-3]


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("k", [3, 4])
def test_any_number_of_blocks_gives_the_same_sweep(scenario, scenario_profile, monkeypatch,
                                                   k, blocks):
    # the rows of a sweep never exchange a value, so a sweep marched in 1, 2
    # or 3 contiguous blocks (one per usable CPU, the longer ones first)
    # gives the snapshot bytes, the metadata apart from wall_time_s and the
    # report of one stack; the snapshots of a forked block come back read-only
    s = build_mesh(4.0, 128)
    w0 = w0_from_density(1.0, s)
    eps_list = _BLOCK_EPS[:k]
    cfg = SolverSection(s_max=4.0, N=128, eps_list=tuple(eps_list), t_end=0.003,
                        output_times=(0.0, 0.0013, 0.003))
    stack, failures = _march(scenario, w0, cfg, eps_list, scenario_profile,
                             shared_dt=_shared_dt(scenario_profile, s, w0, eps_list))
    assert failures == [] and len(stack) == k
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _, one_block = proper_sweep(scenario, cfg, scenario_profile)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(blocks)))
    trajs, report = proper_sweep(scenario, cfg, scenario_profile)
    assert report == one_block and report.failures == ()
    assert [traj.epsilon for traj in trajs] == eps_list
    for traj, row in zip(trajs, stack):
        _assert_same_run(traj, row)
        assert ({**traj.metadata, "wall_time_s": None}
                == {**row.metadata, "wall_time_s": None})
        assert not any(w.flags.writeable for w in (traj.s, *traj.snapshots))
    # each block has a march time of its own
    walls = [traj.metadata["wall_time_s"] for traj in trajs]
    sizes = [len(list(group)) for _, group in itertools.groupby(walls)]
    assert sizes == {(3, 1): [3], (3, 2): [2, 1], (3, 3): [1, 1, 1], (4, 1): [4],
                     (4, 2): [2, 2], (4, 3): [2, 1, 1]}[k, blocks]


def test_failures_in_a_forked_block_come_back_in_eps_order(scenario, scenario_profile,
                                                          monkeypatch):
    # two blocks of three cutoffs.  The child's third cutoff fails on its
    # third step and its second on the fifth, the parent's second on the
    # seventh: each failure arrives with its epsilon, message and location,
    # in epsilon order, and the survivors are the rows of the stack without
    # failures.  A failure restarts its block's march from W0 without the
    # failed row, so the child's eighth solve is the fifth step of its
    # second march
    import ksblow.solver as solver_mod

    s = build_mesh(4.0, 128)
    w0 = w0_from_density(1.0, s)
    cfg = SolverSection(s_max=4.0, N=128, t_end=0.003, output_times=(0.0, 0.0013, 0.003))
    dt = _shared_dt(scenario_profile, s, w0, _BLOCK_EPS)
    stack, _ = _march(scenario, w0, cfg, _BLOCK_EPS, scenario_profile, shared_dt=dt)
    parent, real, calls = os.getpid(), solver_mod.solve_banded, []

    def solve_banded(matrix, rhs):
        x = real(matrix, rhs)
        calls.append(1)
        plan = {7: 1} if os.getpid() == parent else {3: 2, 8: 1}
        if len(calls) in plan:
            x[40, plan[len(calls)]] = np.nan
        return x

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(solver_mod, "solve_banded", solve_banded)
    trajs, failures = solver_mod._march_blocks(
        lambda block: _march(scenario, w0, cfg, block, scenario_profile, shared_dt=dt),
        _BLOCK_EPS)
    assert [eps for eps, _ in failures] == [3e-2, 1e-2, 5e-3]
    for (eps, exc), step in zip(failures, (7, 5, 3)):
        assert isinstance(exc, SolverError)
        assert str(exc).startswith(f"monotonicity violated by nan at s = {s[39]}, t = ")
        assert exc.location == (s[39], pytest.approx(step * dt, rel=1e-12, abs=0.0))
    assert [traj.epsilon for traj in trajs] == [4e-2, 2e-2, 1.5e-2]
    for traj in trajs:
        _assert_same_run(traj, stack[_BLOCK_EPS.index(traj.epsilon)])


@pytest.mark.parametrize("outcome", ["success", "failed-row", "dead-child", "torn-result",
                                     "child-raises", "parent-raises"])
def test_sweep_leaves_no_child_process(scenario, scenario_profile, monkeypatch, outcome):
    # whatever the outcome, every forked block is reaped: a child that dies
    # without a result, or fails after writing part of it, is a SolverError
    # naming its cutoffs and wait status, a child's exception is raised with
    # its attributes, and a child still marching when this process raises is
    # killed, not waited for
    import signal
    import time

    import ksblow.solver as solver_mod

    cfg = SolverSection(s_max=4.0, N=128, eps_list=(4e-2, 1e-2), t_end=0.002,
                        output_times=(0.0, 0.002))
    parent, real = os.getpid(), solver_mod._march

    def nan_at_node_40(x, cap):
        x[40] = np.nan

    def march(*args, **kwargs):
        if outcome == "failed-row" and os.getpid() != parent:
            _inject_once(monkeypatch, nan_at_node_40)
        elif outcome == "dead-child" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        elif outcome == "torn-result" and os.getpid() != parent:
            return np.zeros(100_000), lambda: None  # the array is written, the lambda fails
        elif outcome == "child-raises" and os.getpid() != parent:
            raise SolverError("boom", location=(0.5, 0.25))
        elif outcome == "parent-raises":
            if os.getpid() == parent:
                raise RuntimeError("boom")
            time.sleep(60)
        return real(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(solver_mod, "_march", march)
    started = time.perf_counter()
    if outcome in ("success", "failed-row"):
        trajs, report = proper_sweep(scenario, cfg, scenario_profile)
        assert [traj.epsilon for traj in trajs] == ([4e-2, 1e-2] if outcome == "success"
                                                    else [4e-2])
        assert [eps for eps, _ in report.failures] == ([] if outcome == "success" else [1e-2])
    else:
        error = RuntimeError if outcome == "parent-raises" else SolverError
        with pytest.raises(error) as info:
            proper_sweep(scenario, cfg, scenario_profile)
        if outcome in ("dead-child", "torn-result"):
            status = int(signal.SIGKILL) if outcome == "dead-child" else 256  # exit code 1
            assert str(info.value) == f"no result for cutoffs [0.01] (wait status {status})"
        elif outcome == "child-raises":
            assert info.value.location == (0.5, 0.25)
    assert time.perf_counter() - started < 30.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cap", [None, 2.0, 0.5])
def test_stack_shares_the_worst_case_cfl_step(scenario, scenario_profile, cap):
    # every step of a stack is the smallest cap-CFL bound over its cutoffs,
    # capped by max_dt (here a multiple ``cap`` of that bound); t_end is two
    # such steps, so neither step is clipped shorter
    s = build_mesh(4.0, 128)
    w0 = w0_from_density(1.0, s)
    eps_list = (2e-2, 1e-2)
    bound = _shared_dt(scenario_profile, s, w0, eps_list)
    max_dt = None if cap is None else cap * bound
    dt = bound if max_dt is None else min(bound, max_dt)
    cfg = SolverSection(s_max=4.0, N=128, eps_list=eps_list, t_end=2.0 * dt, output_times=(),
                        max_dt=max_dt)
    trajs, report = proper_sweep(scenario, cfg, scenario_profile)
    assert report.failures == () and len(trajs) == 2
    for traj in trajs:
        assert traj.metadata["n_steps"] == 2
        assert traj.metadata["dt_history"]["min"] == traj.metadata["dt_history"]["max"] == dt
        assert traj.metadata["n_factorizations"] == 1
        assert traj.metadata["cfl_resets"] == []


def test_refinement_stability(scenario, scenario_profile):
    # halving dt and doubling N shrinks the probe change by a factor >= 1.5
    probes = [(0.3, 0.02), (0.7, 0.02)]
    runs = []
    for N, max_dt in ((96, 4e-5), (192, 2e-5), (384, 1e-5)):
        cfg = SolverSection(s_max=4.0, N=N, epsilon=1e-2, t_end=0.02, output_times=(0.0, 0.02),
                            max_dt=max_dt)
        runs.append(solve_regularized(scenario, cfg, scenario_profile))
    for s_probe, t_probe in probes:
        v = [np.interp(s_probe, traj.s, traj.snapshot_at(t_probe).w) for traj in runs]
        d1 = abs(v[1] - v[0])
        d2 = abs(v[2] - v[1])
        assert d1 >= 1.5 * d2, (s_probe, d1, d2)


def test_trajectory_accessors(small_run, assert_mass_function):
    traj, _ = small_run
    mf = traj.snapshot_at(0.01)
    assert isinstance(mf, MassFunction)
    assert mf.time == 0.01
    assert_mass_function(mf)
    with pytest.raises(ParameterError, match="no snapshot"):
        traj.snapshot_at(0.123)


def _step_matrix(s, n, dt):
    """The step matrix I - dt*A in scipy's (1, 1) banded layout, assembled
    independently of the solver: nodal coefficient n^2 s^((2n-2)/n) times the
    nonuniform second difference, identity rows at both ends."""
    h = np.diff(s)
    hl, hr = h[:-1], h[1:]
    coef = n * n * np.power(s[1:-1], (2.0 * n - 2.0) / n)
    low = coef * (2.0 / (hl * (hl + hr)))
    upp = coef * (2.0 / (hr * (hl + hr)))
    ab = np.zeros((3, s.size))
    ab[0, 2:] = -dt * upp
    ab[1, 1:-1] = 1.0 + dt * (low + upp)
    ab[1, 0] = ab[1, -1] = 1.0
    ab[2, :-2] = -dt * low
    return ab


def _mass_form(s, n, dt):
    """The symmetric step matrix diag(mu) + dt*K as LAPACK's (diagonal,
    off-diagonal) pair, assembled independently of the solver: the dual-cell
    mass mu_i = (h_{i-1} + h_i) / (2 d_i) with the nodal coefficient d_i, the
    stiffness K_ii = 1/h_{i-1} + 1/h_i and K_{i,i+1} = -1/h_i, identity rows
    without couplings at both ends."""
    h = np.diff(s)
    coef = n * n * np.power(s[1:-1], (2.0 * n - 2.0) / n)
    mu = np.ones(s.size)
    mu[1:-1] = (h[:-1] + h[1:]) / (2.0 * coef)
    diag = np.zeros(s.size)
    diag[1:-1] = 1.0 / h[:-1] + 1.0 / h[1:]
    off = np.zeros(h.size)
    off[1:-1] = -1.0 / h[1:-1]
    return dt * diag + mu, dt * off


def _assembled_dt(s, n, diag, off):
    """The step size whose _mass_form is (diag, off) bit for bit, or None."""
    dt = float(off[1] * -(s[2] - s[1]))
    candidates = [dt]
    for direction in (np.inf, -np.inf):
        step = dt
        for _ in range(4):
            step = float(np.nextafter(step, direction))
            candidates.append(step)
    for dt in candidates:
        d, e = _mass_form(s, n, dt)
        if d.tobytes() == diag.tobytes() and e.tobytes() == off.tobytes():
            return dt
    return None


_RESIDUAL_MAX = 1e-13  # relative to the cap


def _recording_engine(monkeypatch, params, profile, w0, config):
    """Wrap the solver's dpttrf and solve_banded for one run from ``w0`` with
    the solver section ``config``.  Each factorization keeps a copy of the
    matrix it factored.  Each solve is checked three ways: its factors are
    those of _mass_form at some dt, bit for bit; the solution is the test's
    own dpttrs call on those factors, bit for bit; and it solves the scheme's
    nonsymmetric step (I - dt*A) x = W + dt*c*W_s from the previous solution,
    with the transport c = chi_eps (W + nF) and the Dirichlet values, to a
    residual of at most _RESIDUAL_MAX * cap.  A step that lands on the next
    output time or t_end (within the solver's landing tolerance) with factors
    made for it alone is clipped: its key is "clipped", and its factors move
    from "factored", which keeps the held ones, to the "clipped" list.  The
    log holds each solve's key, its dt, the CFL limit of the W it starts
    from per unit cfl_safety (the min of h / c over the cells with c > 0),
    the node of the cell that sets that limit, and the last solution."""
    from scipy.linalg.lapack import dpttrs

    import ksblow.solver as solver_mod
    from ksblow.signal import chi_eval

    s, n, cap = w0.s, params.n, w0.far_field
    h = np.diff(s)
    chi, nF = chi_eval(config.epsilon, s), n * profile.F(s)
    real_factor, real_solve = solver_mod.dpttrf, solver_mod.solve_banded
    targets = [t for t in (*config.output_times, config.t_end) if t > 0.0]
    log = {"factored": {}, "clipped": [], "solves": [], "dts": [], "cfl": [], "cell": [],
           "t": 0.0, "w": np.concatenate(([0.0], w0.w[1:-1], [cap]))}

    def dpttrf(d, e, **kwargs):
        matrix = (d.copy(), e.copy())
        out = real_factor(d, e, **kwargs)
        log["factored"][id(out[0])] = (matrix, out)  # out keeps the id unique
        return out

    def solve_banded(factors, rhs):
        key = id(factors[0])
        assembled = log["factored"][key][0]
        expected = dpttrs(*factors, rhs)[0]
        x = real_solve(factors, rhs)
        assert x.tobytes() == expected.tobytes()
        dt = _assembled_dt(s, n, *assembled)
        assert dt is not None
        if log["t"] + dt >= targets[0] - 1e-12 * max(1.0, targets[0]):
            log["t"] = targets.pop(0)
            if key not in log["solves"]:  # factored for this step alone
                log["clipped"].append(log["factored"].pop(key))
                key = "clipped"
        else:
            log["t"] += dt
        w = log["w"]
        c = chi * (w + nF)
        limited = c[:-1] > 0.0
        limits = np.full(h.size, np.inf)
        limits[limited] = h[limited] / c[:-1][limited]
        log["cfl"].append(float(np.min(limits)))
        log["cell"].append(int(np.argmin(limits)))
        step_rhs = w + dt * c * np.append(np.diff(w) / h, 0.0)
        step_rhs[0], step_rhs[-1] = 0.0, cap
        ab = _step_matrix(s, n, dt)
        lhs = ab[1] * x
        lhs[:-1] += ab[0, 1:] * x[1:]
        lhs[1:] += ab[2, :-1] * x[:-1]
        assert np.max(np.abs(lhs - step_rhs)) <= _RESIDUAL_MAX * cap
        log["solves"].append(key)
        log["dts"].append(dt)
        log["w"] = x.copy()
        return x

    monkeypatch.setattr(solver_mod, "dpttrf", dpttrf)
    monkeypatch.setattr(solver_mod, "solve_banded", solve_banded)
    return log


def test_step_solve_matches_scipy_banded(scenario, scenario_profile, monkeypatch):
    # a one-cutoff sweep's fixed CFL dt and steps clipped to output times that
    # it does not divide; every step solves the banded step matrix I - dt*A
    # of the scheme
    from ksblow.signal import chi_eval

    s = build_mesh(4.0, 128)
    w0 = w0_from_density(1.0, s)
    chi = chi_eval(1e-2, s)
    dt = cap_cfl_bound(np.diff(s), chi, 3 * scenario_profile.F(s), w0.far_field, 0.4)
    cfg = SolverSection(s_max=4.0, N=128, epsilon=1e-2, t_end=0.002,
                        output_times=(0.0, 0.0013, 0.002))
    log = _recording_engine(monkeypatch, scenario, scenario_profile, w0, cfg)
    (traj,), _ = proper_sweep(scenario, replace(cfg, eps_list=(1e-2,)), scenario_profile)
    assert len(log["solves"]) == traj.metadata["n_steps"]
    factored = list(log["factored"].values())
    # the only held factors are those of the CFL dt, assembled as the scheme says
    assert len(factored) == 1 == traj.metadata["n_factorizations"]
    diag, off = _mass_form(s, 3, dt)
    assert factored[0][0][0].tobytes() == diag.tobytes()
    assert factored[0][0][1].tobytes() == off.tobytes()
    # the two clipped steps are factored aside, once each
    assert log["solves"].count("clipped") == len(log["clipped"]) == 2
    assert set(log["solves"]) == set(log["factored"]) | {"clipped"}
    assert all(step == dt for key, step in zip(log["solves"], log["dts"]) if key != "clipped")
    assert traj.metadata["dt_history"]["min"] < dt
    assert sum(log["dts"]) == pytest.approx(0.002, rel=1e-12, abs=0.0)
    assert log["w"].tobytes() == traj.snapshots[-1].tobytes()


@pytest.mark.parametrize("k", [1, 3])
def test_factored_solve_equals_dptsv_at_a_clipped_dt(scenario_profile, k):
    # a clipped step is solved by dpttrf then dpttrs, which is how LAPACK
    # defines dptsv, the one-call solve that such steps used: on the step
    # matrix at a clipped dt the two give the same bits, for one column and
    # for a stack's k columns
    from scipy.linalg.lapack import dptsv

    from ksblow.solver import dpttrf, solve_banded

    s = build_mesh(4.0, 128)
    w0 = w0_from_density(1.0, s)
    dt = _shared_dt(scenario_profile, s, w0, [1e-2])
    t = 0.0
    while t + dt < 0.0013 - 1e-12:  # the solver's steps up to its landing
        t += dt
    clipped = 0.0013 - t
    assert 0.0 < clipped < dt
    diag, off = _mass_form(s, 3, clipped)
    w = np.stack([w0.w * scale for scale in (1.0, 0.7, 0.4)[:k]])
    rhs = (w * diag).T  # the (N+1, k) columns, as a stack lays them out
    expected = dptsv(diag, off, rhs)[2]
    x = solve_banded(dpttrf(diag.copy(), off.copy())[:2], rhs.copy(order="F"))
    assert x.tobytes() == expected.tobytes()


@pytest.mark.parametrize("stepping", ["shared", "max_dt", "adaptive"])
def test_step_matrix_factored_once_per_step_size(scenario, scenario_profile, monkeypatch,
                                                 stepping):
    s = build_mesh(4.0, 128)
    w0 = w0_from_density(1.0, s)
    # the adaptive CFL dt here is about 6e-5 and the cap-CFL bound 5.5e-5, so
    # a sweep of one capped at 3e-5 steps by 3e-5; the output times and t_end
    # are no multiples of the shared and capped steps, so each is a clipped step
    max_dt = {"shared": 3e-5, "max_dt": 2.2e-5, "adaptive": None}[stepping]
    cfg = SolverSection(s_max=4.0, N=128, epsilon=1e-2, t_end=2e-3,
                        output_times=(0.0, 7e-4, 1.4e-3), max_dt=max_dt)
    log = _recording_engine(monkeypatch, scenario, scenario_profile, w0, cfg)
    if stepping == "shared":
        (traj,), _ = proper_sweep(scenario, replace(cfg, eps_list=(1e-2,)), scenario_profile)
        assert traj.metadata["dt_history"]["max"] == 3e-5
    else:
        traj = solve_regularized(scenario, cfg, scenario_profile)
    n_steps = traj.metadata["n_steps"]
    if stepping == "max_dt":
        assert traj.metadata["dt_history"]["max"] == 2.2e-5
    assert len(log["solves"]) == n_steps
    clipped = log["solves"].count("clipped")
    if stepping == "adaptive":  # the held CFL step reuses its factors
        assert 1 <= len(log["factored"]) < n_steps
    else:  # one factorization
        assert len(log["factored"]) == 1
    assert traj.metadata["n_factorizations"] == len(log["factored"])
    # 7e-4, 1.4e-3 and t_end are the clipped steps, factored aside
    assert clipped == len(log["clipped"]) == 3 < n_steps


@pytest.mark.parametrize("max_dt", [None, 6.3e-5])
def test_adaptive_step_held_within_cfl_band(scenario, scenario_profile, monkeypatch, max_dt):
    # the CFL limit L falls by about 5% over this run, from 6.51e-5 to
    # 6.21e-5, so the held step is replaced a few times.  Every step is at
    # most the L of the W it starts from; a step not clipped to an output
    # time lies within [(1 - 2 theta) L, L], unless it is max_dt, and it is
    # exactly max_dt wherever the cap lies below that band.  Each step that
    # the CFL limit resets is recorded with the node of the cell that set it
    from ksblow.solver import _HOLD_BAND

    s = build_mesh(4.0, 128)
    w0 = w0_from_density(1.0, s)
    cfg = SolverSection(s_max=4.0, N=128, epsilon=1e-2, t_end=0.05,
                        output_times=(0.0, 0.0175, 0.035), max_dt=max_dt)
    log = _recording_engine(monkeypatch, scenario, scenario_profile, w0, cfg)
    traj = solve_regularized(scenario, cfg, scenario_profile)
    assert len(log["solves"]) == traj.metadata["n_steps"]
    capped = free = 0
    for key, dt, cfl in zip(log["solves"], log["dts"], log["cfl"]):
        limit = cfg.cfl_safety * cfl
        assert dt <= limit
        if key == "clipped":  # clipped to an output time
            continue
        if max_dt is not None and max_dt < (1.0 - 2.0 * _HOLD_BAND) * limit:
            assert dt == max_dt
            capped += 1
        elif dt != max_dt:
            assert (1.0 - 2.0 * _HOLD_BAND) * limit <= dt
            free += 1
    assert free > 0
    assert 1 < traj.metadata["n_factorizations"] == len(log["factored"])
    if max_dt is not None:  # the cap binds on some steps, not all
        assert capped > 0
        assert traj.metadata["dt_history"]["max"] == max_dt
    # the first solve with new factors is the step that factored them
    first = [i for i, key in enumerate(log["solves"])
             if key != "clipped" and key not in log["solves"][:i]]
    resets = traj.metadata["cfl_resets"]
    reset_steps = [i for i in first if log["dts"][i] != max_dt]
    assert len(resets) == len(reset_steps) > 0
    if max_dt is None:  # every factorization is a reset
        assert len(resets) == traj.metadata["n_factorizations"]
    for reset, i in zip(resets, reset_steps):
        assert reset["dt"] == log["dts"][i]
        assert reset["dt"] == pytest.approx((1.0 - _HOLD_BAND) * cfg.cfl_safety * log["cfl"][i],
                                            rel=1e-14, abs=0.0)
        assert reset["s"] == s[log["cell"][i]]
    assert [r["t"] for r in resets] == sorted(r["t"] for r in resets)


@pytest.mark.parametrize("stepping", ["adaptive", "max_dt", "stack"])
def test_boundary_values_exact_without_writes(scenario, scenario_profile, stepping):
    # the step writes no boundary value: the transport rate is 0 at s = 0 and
    # at s_max, and the Dirichlet rows of the step matrix are identity rows
    # without coupling, so every snapshot holds W_0 = 0 and W_N = cap bit for
    # bit, on held, reset and clipped steps and in every row of a stack
    cap = scenario.c0
    cfg = SolverSection(s_max=4.0, N=128, epsilon=1e-2, t_end=2e-3,
                        output_times=(0.0, 7e-4, 1.4e-3, 2e-3),
                        max_dt=2.2e-5 if stepping == "max_dt" else None)
    if stepping == "stack":  # three cutoffs on one shared step
        trajs, report = proper_sweep(scenario, replace(cfg, eps_list=(1e-2, 1e-3, 1e-4)),
                                     scenario_profile)
        assert report.failures == () and len(trajs) == 3
    else:
        trajs = [solve_regularized(scenario, cfg, scenario_profile)]
    for traj in trajs:
        assert traj.times == cfg.output_times
        for w in traj.snapshots:
            assert w[0].tobytes() == np.float64(0.0).tobytes()
            assert w[-1].tobytes() == np.float64(cap).tobytes()


def _inject_once(monkeypatch, change):
    """Wrap the solver's solve_banded so that ``change(x, cap)`` edits the
    first solution before the step's invariant check; returns the list that
    counts the solves.  A sweep sees one usable CPU, so its k columns are one
    solve in this process."""
    import ksblow.solver as solver_mod

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    real = solver_mod.solve_banded
    calls = []

    def solve_banded(matrix, rhs):
        x = real(matrix, rhs)
        if not calls:
            change(x, x[-1])
        calls.append(1)
        return x

    monkeypatch.setattr(solver_mod, "solve_banded", solve_banded)
    return calls


@pytest.mark.parametrize("change", ["dip", "wiggle", "low", "high"])
def test_stack_check_skips_rows_within_log_level(scenario, scenario_profile, monkeypatch,
                                                 change):
    # one row of a stack is changed after the first step.  A dip of 5e-13 cap
    # is within the log level and in range: no row is checked and nothing is
    # recorded, and so for dips of 5e-13 and 9e-13 cap in every row (wiggle).
    # A row that leaves the range, by 2e-12 cap with a dip (low) or by
    # 1.8e-12 cap with every difference within the log level (high), records it
    import ksblow.solver as solver_mod

    real_check, checked = solver_mod._check_row, []

    def check_row(*args):
        checked.append(args[0])
        return real_check(*args)

    def edit(x, cap):
        if change == "dip":
            x[64, 1] = x[63, 1] - 5e-13 * cap[1]
        elif change == "wiggle":
            x[64] = x[63] - 5e-13 * cap
            x[90] = x[89] - 9e-13 * cap
        elif change == "low":
            x[1, 1] = -2e-12 * cap[1]
        else:  # up by 1.8e-12 cap, then down to cap in two steps of 0.9e-12 cap
            x[-3, 1], x[-2, 1] = cap[1] * (1.0 + 1.8e-12), cap[1] * (1.0 + 0.9e-12)

    monkeypatch.setattr(solver_mod, "_check_row", check_row)
    calls = _inject_once(monkeypatch, edit)
    cap = scenario.c0
    cfg = SolverSection(s_max=4.0, N=128, eps_list=(4e-2, 2e-2, 1e-2), t_end=0.002,
                        output_times=(0.0, 0.002))
    trajs, report = proper_sweep(scenario, cfg, scenario_profile)
    assert calls and report.failures == ()
    assert trajs[0].metadata["violations"] == trajs[2].metadata["violations"] == []
    logged = trajs[1].metadata["violations"]
    ranges = [(v["low"], v["high"]) for v in logged if v["kind"] == "range"]
    if change in ("dip", "wiggle"):
        assert checked == [] and logged == []
        assert all(traj.times == (0.0, 0.002) for traj in trajs)
    elif change == "low":
        assert -2e-12 * cap in checked
        assert ranges[0][0] == -2e-12 * cap
    else:
        assert checked and min(checked) >= -1e-12 * cap
        assert ranges[0][1] == cap * (1.0 + 1.8e-12)
        assert all(v["kind"] == "range" for v in logged)


def test_nonfinite_w_is_an_invariant_violation(scenario, scenario_profile, monkeypatch):
    # the solve does not check its input; the invariant check after the step
    # must stop a NaN where it appears instead of marching it to the end
    from ksblow.errors import SolverError

    def nan_at_node_40(x, cap):
        x[40] = np.nan

    calls = _inject_once(monkeypatch, nan_at_node_40)
    s = build_mesh(4.0, 128)
    w0 = w0_from_density(1.0, s)
    cfg = SolverSection(s_max=4.0, N=128, epsilon=1e-2, t_end=0.002, output_times=(0.0, 0.002))
    with pytest.raises(SolverError, match="nan") as err:
        solve_regularized(scenario, cfg, scenario_profile)
    assert len(calls) == 1
    s_at, t_at = err.value.location
    assert s_at == s[39]  # the cell [s_39, s_40] holds the NaN drop
    assert 0.0 < t_at < 0.002

    # in a stack, the NaN fails only its own row, with the same node and time
    def nan_in_row_1(x, cap):
        x[40, 1] = np.nan

    _inject_once(monkeypatch, nan_in_row_1)
    eps_list = [4e-2, 2e-2, 1e-2]
    trajs, failures = _march(scenario, w0, cfg, eps_list, scenario_profile,
                             shared_dt=_shared_dt(scenario_profile, s, w0, eps_list))
    (eps, exc), = failures
    assert eps == 2e-2 and str(exc).startswith("monotonicity violated by nan")
    s_at, t_at = exc.location
    assert s_at == s[39] and 0.0 < t_at < 0.002
    assert [traj.epsilon for traj in trajs] == [4e-2, 1e-2]
    assert all(traj.metadata["violations"] == [] for traj in trajs)
    assert all(traj.times == (0.0, 0.002) for traj in trajs)


def test_cap_cfl_bound_matches_masked_formula():
    # a cell whose coefficient chi (cap + nF) is 0, -0, negative or NaN sets
    # no limit; the bound has the masked formula's bits and raises no warning
    from ksblow.signal import chi_eval

    def masked(h, coef, cfl):
        with np.errstate(divide="ignore"):
            return cfl * np.where(coef > 0, h / coef, np.inf).min()

    rng = np.random.default_rng(31)
    specials = (None, 0.0, -0.0, -1.0, np.nan)
    for trial in range(200):
        s = build_mesh(4.0, int(rng.integers(96, 200)))
        h = np.diff(s)
        chi = chi_eval(float(10 ** rng.uniform(-5, -0.5)), s)
        start = int(np.argmax(chi[:-1] > 0))  # chi is 0 before the first live cell
        nF = rng.uniform(0.0, 5.0, s.size)
        cap = float(rng.uniform(0.5, 2.0))
        special = specials[trial % len(specials)]
        if special is not None:
            chi[rng.integers(start, h.size)] = special
        cfl = float(rng.uniform(0.1, 0.9))
        got = cap_cfl_bound(h, chi, nF, cap, cfl)
        want = masked(h, chi[:-1] * (cap + nF[:-1]), cfl)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    # chi identically 0, or no cell at all: nothing limits the step
    s = build_mesh(4.0, 128)
    assert cap_cfl_bound(np.diff(s), np.zeros_like(s), s, 1.0, 0.4) == np.inf
    assert cap_cfl_bound(np.diff(s[:1]), np.zeros(1), s[:1], 1.0, 0.4) == np.inf


@pytest.mark.parametrize("kind", ["monotonicity", "range"])
def test_small_violation_is_logged(scenario, scenario_profile, monkeypatch, kind):
    # a dip above the log level and below the slack is recorded, not raised:
    # the check may skip the range scan only on a non-decreasing profile
    def dip(x, cap):
        if kind == "monotonicity":
            x[64] = x[63] - 1e-10 * cap
        else:
            x[1] = -1e-10 * cap

    _inject_once(monkeypatch, dip)
    cfg = SolverSection(s_max=4.0, N=128, epsilon=1e-2, t_end=0.002, output_times=(0.0, 0.002))
    traj = solve_regularized(scenario, cfg, scenario_profile)
    s = traj.s
    logged = [v for v in traj.metadata["violations"] if v["kind"] == kind]
    assert len(logged) == 1
    if kind == "monotonicity":
        assert logged[0]["s"] == s[63]
        assert logged[0]["magnitude"] == pytest.approx(-1e-10, rel=1e-3, abs=0.0)
    else:
        assert logged[0]["low"] == -1e-10 * traj.far_field


def test_lapack_loader_names_the_directory_searched(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with pytest.raises(ImportError, match=re.escape(str(tmp_path))) as caught:
        _load_flapack(tmp_path)
    # the version is read from scipy's metadata, not from its package init
    assert f"(scipy {version('scipy')})" in str(caught.value)
