"""Finite-difference solver for the regularized degenerate mass-function
equation on a truncated graded mesh.

The regularized problem for W(s, t) is

    W_t = n^2 s^((2n-2)/n) W_ss + chi_eps(s) (W + n F(s)) W_s,
    W(0, t) = 0,   W(s_max, t) = n*mu/|S_{n-1}|,   W(s, 0) = W0(s),

where chi_eps is the cutoff switching the transport off near the degenerate
origin.  The scheme is IMEX: the degenerate diffusion is implicit (one
tridiagonal solve per step; the coefficient n^2 s^((2n-2)/n) is evaluated at
the nodes, which are the centers of their dual cells, and the s = 0 row is
the Dirichlet identity row), while the transport is explicit with the
coefficient lagged, chi_eps(s)(W^k + nF)(W^k)_s, and first-order upwinding.
The transport coefficient is nonnegative, so characteristics run toward the
origin and the upwind stencil is the forward difference.  Under the
advection CFL bound both substeps are monotone, so the discrete solution
inherits the maximum principle (0 <= W <= cap) and the non-decreasing
profile up to roundoff; violations beyond tolerance are reported with their
location, never clamped.

The time step is adaptive, dt <= cfl_safety * min_i ds_i / c_i with
c = chi_eps (W + nF), recomputed every step and clipped to land exactly on
requested output times.  The step matrix I - dt*A is LU-factored (LAPACK
dgttrf) only when dt differs from the held factors' dt; a clipped step is
factored aside, so a fixed dt is factored once plus once per clipped step.
Each step is one in-place dgttrs solve, which does not check its input: a
non-finite W is caught by the invariant check, with its location.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import ParameterError, SolverError
from .params import SystemParams, validate
from .signal import SignalProfile, chi_eval
from .transform import MassFunction

_RATIO_MAX = 1.2
_N_MIN = 64
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

# invariant tolerances: the slacks are relative to the mass cap, the step
# underflow to the horizon; wiggles above _VIOLATION_LOG are logged, above
# the slack they raise
_CAP_SLACK = 1e-8
_MONOTONE_SLACK = 1e-8
_DT_UNDERFLOW = 1e-16
_VIOLATION_LOG = 1e-12


@dataclass(frozen=True)
class Mesh:
    """Graded mesh 0 = s_0 < ... < s_N = s_max with geometric refinement
    toward the degenerate origin."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        if nodes[0] != 0.0 or not np.all(np.diff(nodes) > 0):
            raise ParameterError("mesh nodes must start at 0 and increase strictly")

    @property
    def s_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def N(self) -> int:
        return self.nodes.size - 1


def build_mesh(s_max: float, N: int, ratio: float | None = None) -> Mesh:
    """Geometric mesh with s_i = s_max (r^i - 1)/(r^N - 1).

    With ratio omitted, the smallest admissible ratio achieving
    s_1 <= 1e-6 * s_max is solved for; if even ratio = 1.2 cannot reach that,
    the error suggests the number of nodes that can.
    """
    if N < _N_MIN:
        raise ParameterError(f"N must be >= {_N_MIN} (got {N})")
    if s_max <= 0:
        raise ParameterError(f"s_max must be > 0 (got {s_max})")
    if ratio is None:
        target = 1e-6

        def first_cell(r):
            ln = N * math.log(r)
            if ln > 700.0:  # r**N overflows; the first cell is vanishingly small
                return 0.0
            return (r - 1.0) / math.expm1(ln)

        if first_cell(_RATIO_MAX) > target:
            n_needed = math.ceil(math.log(target ** -1 * (_RATIO_MAX - 1.0) + 1.0)
                                 / math.log(_RATIO_MAX))
            raise ParameterError(
                f"N = {N} is too small for the grading: even ratio {_RATIO_MAX} "
                f"leaves s_1 > 1e-6*s_max; use N >= {n_needed}")
        lo, hi = 1.0 + 1e-12, _RATIO_MAX
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if first_cell(mid) > target:
                lo = mid
            else:
                hi = mid
        ratio = hi
    if not 1.0 < ratio <= _RATIO_MAX:
        raise ParameterError(f"ratio must be in (1, {_RATIO_MAX}] (got {ratio})")
    if math.log(max(s_max, 1.0)) + N * math.log(ratio) >= _LOG_FLOAT_MAX:
        raise ParameterError(f"s_max = {s_max!r} is too large: s_max * ratio**N overflows "
                             f"a double at N = {N}, ratio = {ratio!r}")
    i = np.arange(N + 1, dtype=float)
    nodes = s_max * np.expm1(i * math.log(ratio)) / np.expm1(N * math.log(ratio))
    nodes[0] = 0.0
    nodes[-1] = s_max
    return Mesh(nodes=nodes)


@dataclass(frozen=True)
class SolverConfig:
    """One regularized run: cutoff epsilon, horizon, output times, stepping.

    ``dt_fixed`` replaces the per-step adaptive CFL step with a constant one
    (still clipped to output times); it must respect the worst-case CFL bound
    with W at its cap.  Sweeps use it so all runs share one time grid, which
    is what makes the epsilon-ordering comparison exact for the discrete
    scheme instead of polluted by run-dependent temporal smearing.
    """

    epsilon: float
    t_end: float
    output_times: tuple
    cfl_safety: float = 0.4
    max_dt: float | None = None
    dt_fixed: float | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ParameterError(f"epsilon must be in (0, 1) (got {self.epsilon})")
        if not 0.0 < self.cfl_safety < 1.0:
            raise ParameterError(f"cfl_safety must be in (0, 1) (got {self.cfl_safety})")
        times = tuple(float(t) for t in self.output_times)
        if any(t < 0 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
            raise ParameterError("output times must be nonnegative and strictly increasing")
        if times and times[-1] > self.t_end:
            raise ParameterError("output times must not exceed t_end")
        object.__setattr__(self, "output_times", times)
        if self.max_dt is not None and not self.max_dt > 0.0:
            raise ParameterError(f"max_dt must be > 0 (got {self.max_dt})")


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one (epsilon, mesh, stepping) run plus run metadata."""

    mesh: Mesh
    epsilon: float
    times: tuple
    snapshots: tuple            # tuple of read-only arrays, one per time
    far_field: float
    metadata: dict

    @property
    def n(self) -> int:
        """Space dimension of the run, as recorded in its metadata."""
        if "n" not in self.metadata:
            raise ParameterError("trajectory metadata lacks the dimension n")
        return int(self.metadata["n"])

    def mass_function(self, k: int) -> MassFunction:
        return MassFunction(s=self.mesh.nodes, w=self.snapshots[k],
                            time=self.times[k], far_field=self.far_field)

    def snapshot_at(self, t: float) -> MassFunction:
        for k, tk in enumerate(self.times):
            if abs(tk - t) <= 1e-12 * max(1.0, abs(t)):
                return self.mass_function(k)
        raise ParameterError(f"no snapshot at t = {t}; have {self.times}")

    def w_at(self, s, t: float):
        """Interpolate W in s at a stored output time."""
        snap = self.snapshot_at(t)
        return np.interp(s, snap.s, snap.w)


def solve_regularized(params: SystemParams, w0: MassFunction, config: SolverConfig,
                      profile: SignalProfile) -> Trajectory:
    """March the regularized problem from w0 to t_end; snapshot at the
    requested output times.  Deterministic for fixed inputs."""
    params = validate(params)
    mesh = Mesh(nodes=w0.s)
    s = mesh.nodes
    n = params.n
    cap = w0.far_field
    if config.epsilon < 2.0 * s[1]:
        raise ParameterError(
            f"epsilon = {config.epsilon} not resolved by the mesh (s_1 = {s[1]})")
    if abs(w0.w[-1] - cap) > 1e-8 * max(cap, 1.0):
        raise ParameterError(
            f"truncation does not reach the far field: W0(s_max) = {w0.w[-1]}, cap = {cap}")

    h = np.diff(s)
    chi = chi_eval(config.epsilon, s)
    nF = n * profile.F(s)

    # the diffusion matrix A as LAPACK's (sub, main, super) diagonals; its
    # Dirichlet rows 0 and N are zero
    d_coef = n * n * np.power(s[1:-1], (2.0 * n - 2.0) / n)
    hl, hr = h[:-1], h[1:]
    diffusion = sub, main, sup = np.zeros_like(h), np.zeros_like(s), np.zeros_like(h)
    sub[:-1] = d_coef * (2.0 / (hl * (hl + hr)))
    sup[1:] = d_coef * (2.0 / (hr * (hl + hr)))
    main[1:-1] = -(sub[:-1] + sup[1:])

    w = w0.w.astype(float).copy()
    w[0] = 0.0
    w[-1] = cap
    t = 0.0
    out_times = list(config.output_times)
    snapshots = []
    snap_times = []
    violations = []
    n_steps = 0
    dt_min_seen = math.inf
    dt_max_seen = 0.0
    # work arrays and LAPACK bands, allocated once and filled in place
    coef, ws, rhs = np.empty_like(w), np.zeros_like(w), np.empty_like(w)
    held_bands, clip_bands = ([np.empty_like(a) for a in diffusion] for _ in range(2))
    held_dt = held = None
    started = _time.perf_counter()

    def record(wvec, tnow):
        arr = wvec.copy()
        arr.flags.writeable = False
        snapshots.append(arr)
        snap_times.append(tnow)

    def check_invariants(wvec, tnow):
        # written so that NaN fails every test; min and argmin propagate it
        drops = np.diff(wvec)
        worst = float(drops.min())
        if not worst >= -_VIOLATION_LOG * cap:
            i = int(drops.argmin())
            violations.append({"kind": "monotonicity", "t": tnow,
                               "s": float(s[i]), "magnitude": worst})
            if not worst >= -_MONOTONE_SLACK * cap:
                raise SolverError(
                    f"monotonicity violated by {worst:.3e} at s = {s[i]}, t = {tnow}",
                    location=(float(s[i]), tnow))
        lo, hi = float(wvec.min()), float(wvec.max())
        if not (hi <= cap * (1.0 + _VIOLATION_LOG) and lo >= -_VIOLATION_LOG * cap):
            violations.append({"kind": "range", "t": tnow,
                               "low": lo, "high": hi})
            if not (hi <= cap * (1.0 + _CAP_SLACK) and lo >= -_CAP_SLACK * cap):
                raise SolverError(
                    f"range violated at t = {tnow}: [{lo:.3e}, {hi:.3e}] vs cap {cap}",
                    location=(None, tnow))

    check_invariants(w, t)
    if out_times and out_times[0] == 0.0:
        record(w, 0.0)
        out_times.pop(0)

    if config.dt_fixed is not None:
        bound = cap_cfl_bound(h, chi, nF, cap, config.cfl_safety)
        if config.dt_fixed > bound * (1.0 + 1e-12):
            raise ParameterError(
                f"dt_fixed = {config.dt_fixed} exceeds the worst-case CFL bound {bound}")

    while t < config.t_end - 1e-15 * max(config.t_end, 1.0):
        np.add(w, nF, out=coef)
        coef *= chi
        if config.dt_fixed is not None:
            dt = config.dt_fixed
        else:
            dt = _cfl_dt(h, coef[:-1], config.cfl_safety)
        if config.max_dt is not None:
            dt = min(dt, config.max_dt)
        t_target = out_times[0] if out_times else config.t_end
        # tolerance absorbs accumulated summation drift when dt divides the
        # target evenly, so output times are always landed on exactly
        on_target = t + dt >= t_target - 1e-12 * max(1.0, t_target)
        if on_target:
            dt = t_target - t
        if not math.isfinite(dt) or dt <= _DT_UNDERFLOW * max(config.t_end, 1.0):
            raise SolverError(f"step-size underflow: dt = {dt} at t = {t}",
                              location=(None, t), dt=dt)
        if dt == held_dt:
            lu = held
        else:  # a clipped step is factored aside: the held factors outlive it
            dl, d, du = clip_bands if on_target else held_bands
            for band, a in zip((dl, d, du), diffusion):
                np.multiply(a, -dt, out=band)  # I - dt*A
            d += 1.0
            dl[-1] = du[0] = 0.0  # +0, not -dt * 0, in the Dirichlet rows
            lu = dgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)[:5]
            if not on_target:
                held_dt, held = dt, lu

        # explicit upwind transport: coef >= 0 moves data toward the origin,
        # so node i draws on the forward difference over [s_i, s_{i+1}];
        # rhs = w + dt * (coef * ws)
        np.subtract(w[1:], w[:-1], out=ws[:-1])
        ws[:-1] /= h
        np.multiply(coef, ws, out=rhs)
        rhs *= dt
        rhs += w
        rhs[0], rhs[-1] = 0.0, cap
        w, rhs = solve_banded(lu, rhs), w
        w[0], w[-1] = 0.0, cap

        t = t_target if on_target else t + dt
        n_steps += 1
        dt_min_seen = min(dt_min_seen, dt)
        dt_max_seen = max(dt_max_seen, dt)
        check_invariants(w, t)
        if out_times and t == out_times[0]:
            record(w, t)
            out_times.pop(0)

    metadata = {
        "epsilon": config.epsilon,
        "n": n,
        "n_steps": n_steps,
        "dt_history": {"min": dt_min_seen if n_steps else None,
                       "max": dt_max_seen if n_steps else None,
                       "mean": (t / n_steps) if n_steps else None},
        "cfl_safety": config.cfl_safety,
        "tolerances": {"cap_slack": _CAP_SLACK, "monotone_slack": _MONOTONE_SLACK},
        "violations": violations,
        "wall_time_s": _time.perf_counter() - started,
        "mesh": {"N": mesh.N, "s_max": mesh.s_max, "s1": float(s[1])},
    }
    return Trajectory(mesh=mesh, epsilon=config.epsilon, times=tuple(snap_times),
                      snapshots=tuple(snapshots), far_field=cap, metadata=metadata)


def solve_banded(lu, rhs):
    """Solve the step matrix, factored by dgttrf into ``lu``, for ``rhs`` in place."""
    return dgttrs(*lu, rhs, overwrite_b=1)[0]


def _cfl_dt(h, coef, cfl_safety: float) -> float:
    """cfl_safety * min over cells of h / coef; cells with coef = 0 set no limit."""
    with np.errstate(divide="ignore"):
        limits = np.where(coef > 0.0, h / coef, np.inf)
    return cfl_safety * float(limits.min())


def cap_cfl_bound(h, chi, nF, cap: float, cfl_safety: float) -> float:
    """Largest admissible constant dt on cells of widths ``h``: the CFL limit
    with W at its cap, valid for every state in [0, cap]."""
    coef = np.asarray(chi)[:-1] * (cap + np.asarray(nF)[:-1])
    return _cfl_dt(h, coef, cfl_safety)


@dataclass(frozen=True)
class SweepReport:
    """Pointwise ordering of runs in decreasing epsilon at shared times."""

    eps_list: tuple
    pair_violations: tuple      # per consecutive pair: max over times/nodes of the drop
    max_violation: float
    failures: tuple             # (epsilon, message) for runs that errored


def proper_sweep(params: SystemParams, w0: MassFunction, config: SolverConfig,
                 eps_list, profile: SignalProfile):
    """Run each epsilon on the shared mesh; report how well the family
    increases pointwise as epsilon decreases (the regularized solutions climb
    toward the proper solution).  Violations are reported magnitudes, never
    asserted away; failed runs are recorded and the rest continue."""
    eps_list = [float(e) for e in eps_list]
    if any(not 0.0 < e < 1.0 for e in eps_list) or any(
            b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ParameterError("eps_list must be strictly decreasing within (0, 1)")

    # one shared time grid: the worst-case CFL bound over all cutoffs (the
    # smallest epsilon binds), so the runs are ordered by the discrete
    # comparison argument rather than approximately
    if config.dt_fixed is None:
        h = np.diff(w0.s)
        nF = params.n * profile.F(w0.s)
        shared = min(
            cap_cfl_bound(h, chi_eval(eps, w0.s), nF, w0.far_field, config.cfl_safety)
            for eps in eps_list)
        if config.max_dt is not None:
            shared = min(shared, config.max_dt)
        config = replace(config, dt_fixed=shared)

    trajectories = []
    failures = []
    for eps in eps_list:
        try:
            trajectories.append(
                solve_regularized(params, w0, replace(config, epsilon=eps), profile))
        except SolverError as exc:
            failures.append((eps, str(exc)))

    pair_violations = []
    for a, b in zip(trajectories, trajectories[1:]):
        worst = 0.0
        for ta, wa in zip(a.times, a.snapshots):
            for tb, wb in zip(b.times, b.snapshots):
                if ta == tb:
                    worst = max(worst, float(np.max(wa - wb)))
        pair_violations.append(worst)
    report = SweepReport(
        eps_list=tuple(eps_list),
        pair_violations=tuple(pair_violations),
        max_violation=max(pair_violations, default=0.0),
        failures=tuple(failures),
    )
    return trajectories, report


@dataclass(frozen=True)
class ComparisonReport:
    worst_margin: float
    location: tuple             # (s, t) of the worst margin
    tolerance: float
    passed: bool


def comparison_check(traj: Trajectory, candidate, tol: float = 0.0,
                     s_window: tuple | None = None) -> ComparisonReport:
    """Check the trajectory against a subsolution candidate.

    ``candidate(s_array, t)`` evaluates the comparison function on the mesh;
    the run must dominate it (W >= candidate - tol).  Violations are report
    content, not errors.
    """
    s = traj.mesh.nodes
    mask = np.ones_like(s, dtype=bool)
    if s_window is not None:
        mask = (s >= s_window[0]) & (s <= s_window[1])
    worst = math.inf
    where = (float("nan"), float("nan"))
    for t, w in zip(traj.times, traj.snapshots):
        cand = np.asarray(candidate(s, t), dtype=float)
        margin = (w - cand)[mask]
        i = int(np.argmin(margin))
        if margin[i] < worst:
            worst = float(margin[i])
            where = (float(s[mask][i]), t)
    return ComparisonReport(worst_margin=worst, location=where,
                            tolerance=tol, passed=worst >= -tol)


def measured_c_sub(traj: Trajectory, w0: MassFunction) -> float:
    """min{1, min over output times of W(1/2, t) / W0(1)}: the constant that
    scales s^2 W0(s) into a subsolution on [0, 1]."""
    w0_at_1 = float(np.interp(1.0, w0.s, w0.w))
    if w0_at_1 <= 0:
        raise ParameterError("W0(1) must be positive to scale a subsolution")
    vals = [float(np.interp(0.5, traj.mesh.nodes, w)) for w in traj.snapshots]
    return min(1.0, min(vals) / w0_at_1)


def subsolution_candidate(c_sub: float, w0: MassFunction):
    """Candidate c_sub * s^2 * W0(s), valid on the unit interval in s."""

    def candidate(s, _t):
        return c_sub * np.asarray(s) ** 2 * np.interp(s, w0.s, w0.w)

    return candidate
