"""Finite-difference solver for the regularized degenerate mass-function
equation on a truncated graded mesh.

The regularized problem for W(s, t) is

    W_t = n^2 s^((2n-2)/n) W_ss + chi_eps(s) (W + n F(s)) W_s,
    W(0, t) = 0,   W(s_max, t) = n*mu/|S_{n-1}|,   W(s, 0) = W0(s),

where chi_eps is the cutoff switching the transport off near the degenerate
origin.  The scheme is IMEX: the degenerate diffusion is implicit (one
tridiagonal solve per step; the coefficient d_i = n^2 s_i^((2n-2)/n) is
evaluated at the nodes, which are the centers of their dual cells), while
the transport is explicit with the coefficient lagged,
chi_eps(s)(W^k + nF)(W^k)_s, and first-order upwinding.  The transport
coefficient is nonnegative, so characteristics run toward the origin and
the upwind stencil is the forward difference.  Under the advection CFL
bound both substeps are monotone, so the discrete solution inherits the
maximum principle (0 <= W <= cap) and the non-decreasing profile up to
roundoff; violations beyond tolerance are reported with their location,
never clamped.

The implicit step (I - dt*A) W^{k+1} = rhs is solved in its mass-matrix
form.  Row i of the diffusion matrix A is 2 d_i/(h_{i-1} + h_i) times the
stencil [1/h_{i-1}, -(1/h_{i-1} + 1/h_i), 1/h_i], so A = -diag(mu)^-1 K
with the dual-cell mass mu_i = (h_{i-1} + h_i)/(2 d_i) and the stiffness
matrix K, K_ii = 1/h_{i-1} + 1/h_i and K_{i,i+1} = K_{i+1,i} = -1/h_i,
which is symmetric.  Each step solves

    (diag(mu) + dt*K) W^{k+1} = mu * rhs,

with the Dirichlet rows kept as identity rows: the coupling of row N-1 to
W_N = cap moves to the right-hand side as + dt*cap/h_{N-1}, and the one of
row 1 to W_0 = 0 adds nothing.  The matrix is symmetric with a positive
diagonal and strictly diagonally dominant (each diagonal entry exceeds the
sum of its row's off-diagonal moduli by at least mu_i > 0), so it is
positive definite for every dt > 0 and LAPACK's pivot-free routines apply.
Its solution solves the nonsymmetric form up to roundoff.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import time as _time
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path

import numpy as np

from .config import SolverSection
from .errors import ParameterError, SolverError
from .params import SystemParams, validate
from .signal import SignalProfile, chi_eval
from .transform import MassFunction, w0_from_density

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack(directory):
    """scipy's compiled LAPACK wrappers from ``directory``, loaded without
    scipy.linalg's package init (whose array-API layer star-imports numpy,
    numpy.f2py and numpy.ma among it).  The module is registered under its
    own name, and an entry already there is reused, so scipy.linalg.lapack,
    imported before or after, holds the same routine objects."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        finder = FileFinder(str(directory), (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(_FLAPACK)
        if spec is None:
            from importlib.metadata import version

            raise ImportError(f"no {_FLAPACK} extension in {directory} "
                              f"(scipy {version('scipy')})", name=_FLAPACK)
        module = module_from_spec(spec)
        sys.modules[_FLAPACK] = module
        spec.loader.exec_module(module)
    return module


# the spec locates scipy without running its package init
_scipy = find_spec("scipy")
if _scipy is None:
    raise ModuleNotFoundError("ksblow needs scipy", name="scipy")
_flapack = _load_flapack(Path(_scipy.submodule_search_locations[0]) / "linalg")
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs

_RATIO_MAX = 1.2
# theta of the adaptive step's hold band [(1 - 2 theta) L, L] below the CFL
# limit L; a step that leaves the band is reset to (1 - theta) L
_HOLD_BAND = 0.01
_N_MIN = 64
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

# invariant tolerances: the slacks are relative to the mass cap, the step
# underflow to the horizon; wiggles above _VIOLATION_LOG are logged, above
# the slack they raise
_CAP_SLACK = 1e-8
_MONOTONE_SLACK = 1e-8
_DT_UNDERFLOW = 1e-16
_VIOLATION_LOG = 1e-12


def build_mesh(s_max: float, N: int, ratio: float | None = None) -> np.ndarray:
    """Read-only nodes 0 = s_0 < ... < s_N = s_max of the geometric mesh
    s_i = s_max (r^i - 1)/(r^N - 1), refined toward the degenerate origin.

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
    nodes.flags.writeable = False
    return nodes


def _initial_state(params: SystemParams, config: SolverSection, cutoffs) -> MassFunction:
    """W0 = c0 min(s, 1) of the plateau datum on the mesh of ``config``.
    The settings are checked first, in a fixed order: s_max, the mesh,
    epsilon if set, t_end, cfl_safety, output_times, max_dt, then
    ``cutoffs``, the setting the caller marches (epsilon or eps_list), which
    must be set.  On s_max >= 4 the datum's support, the unit ball, lies
    inside the truncation, so W0(s_max) = c0 is the far-field cap exactly."""
    if config.s_max < 4.0:
        raise ParameterError(f"s_max must be >= 4 (got {config.s_max!r})")
    s = build_mesh(config.s_max, config.N, config.ratio)
    if config.epsilon is not None and not 0.0 < config.epsilon < 1.0:
        raise ParameterError(f"epsilon must be in (0, 1) (got {config.epsilon})")
    if not config.t_end > 0.0:
        raise ParameterError(f"t_end must be > 0 (got {config.t_end})")
    if not 0.0 < config.cfl_safety < 1.0:
        raise ParameterError(f"cfl_safety must be in (0, 1) (got {config.cfl_safety})")
    times = config.output_times
    if any(t < 0 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
        raise ParameterError(f"output_times must be nonnegative and strictly increasing "
                             f"(got {list(times)})")
    if times and times[-1] > config.t_end:
        raise ParameterError(f"output_times must not exceed t_end = {config.t_end} "
                             f"(got {times[-1]})")
    if config.max_dt is not None and not config.max_dt > 0.0:
        raise ParameterError(f"max_dt must be > 0 (got {config.max_dt})")
    if not cutoffs:
        raise ParameterError("epsilon (or eps_list) is required")
    return w0_from_density(params.c0, s)


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one (epsilon, mesh, stepping) run on the read-only mesh
    nodes ``s``, plus run metadata."""

    s: np.ndarray
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
        return MassFunction(s=self.s, w=self.snapshots[k],
                            time=self.times[k], far_field=self.far_field)

    def snapshot_at(self, t: float) -> MassFunction:
        for k, tk in enumerate(self.times):
            if abs(tk - t) <= 1e-12 * max(1.0, abs(t)):
                return self.mass_function(k)
        raise ParameterError(f"no snapshot at t = {t}; have {self.times}")


def solve_regularized(params: SystemParams, config: SolverSection,
                      profile: SignalProfile) -> Trajectory:
    """March the regularized problem at ``config.epsilon`` from the plateau
    datum W0 = c0 min(s, 1) to t_end, on the graded mesh of ``config``;
    snapshot at the requested output times.  Deterministic for fixed
    inputs."""
    w0 = _initial_state(params, config, config.epsilon)
    check_resolved("epsilon", [config.epsilon], w0.s)
    trajectories, failures = _march(params, w0, config, [config.epsilon], profile)
    if failures:
        raise failures[0][1]
    return trajectories[0]


def _march(params: SystemParams, w0: MassFunction, config: SolverSection, eps_list,
           profile: SignalProfile, *, shared_dt: float | None = None):
    """March the cutoffs ``eps_list`` from w0 as one stack on one time grid.

    Row r of the C-ordered (k, N+1) state is the run at eps_list[r]; its
    transpose is the (N+1, k) right-hand side of one LAPACK solve per step,
    and the elementwise work runs on its flat view, with nF tiled and chi/h
    stacked per row, so each row is computed exactly as its own run would
    be.  Every step is ``shared_dt``, a sweep's step, if given, else the
    adaptive CFL step of a stack of one, and max_dt caps it.  Returns
    (trajectories, failures), failures in eps_list order: a row whose
    invariant check fails becomes its (epsilon, SolverError) and ends the
    march, and the other rows march again from w0 without it, so each comes
    out as its own run would; a step-size underflow fails every row.  Every
    trajectory carries the metadata of its own run, except wall_time_s,
    which is the time of the last march.
    """
    params = validate(params)
    s = w0.s
    n = params.n
    cap = w0.far_field
    h = np.diff(s)
    nF = n * profile.F(s)

    # the step matrix diag(mu) + dt*K as LAPACK's (diagonal, off-diagonal)
    # pair: the stiffness K end to end in one array, so that the pair takes
    # one multiply and one add of mu; K is zero in the Dirichlet rows and
    # their couplings, and mu is 1 there, which makes them identity rows
    size = s.size
    d_coef = n * n * np.power(s[1:-1], (2.0 * n - 2.0) / n)
    mu = np.ones(size)
    mu[1:-1] = (h[:-1] + h[1:]) / (2.0 * d_coef)
    stiffness = np.zeros(size + h.size)
    stiffness[1:h.size] = 1.0 / h[:-1] + 1.0 / h[1:]
    stiffness[size + 1:-1] = -1.0 / h[1:-1]
    edge = cap / h[-1]  # row N-1's coupling to W_N, per unit dt

    # the flat state of the k rows.  Each row's differences W_{i+1} - W_i sit
    # in ws[:N] (the check writes them, the next step's transport multiplies
    # them by the rate) and its ws[N] stays 0; the k - 1 differences across
    # rows are zeroed.  The transport rate per unit W + nF is chi/h over the
    # cell [s_i, s_{i+1}]: 0 at s = 0, where chi is, and at s_max, which has
    # no cell
    k = len(eps_list)
    w = np.tile(np.concatenate(([0.0], w0.w[1:-1], [cap])), k)
    ws = np.zeros_like(w)
    drops, coef, w_hi, w_lo = ws[:-1], np.empty_like(w), w[1:], w[:-1]
    factor = np.concatenate([np.append(chi_eval(eps, s)[:-1] / h, 0.0) for eps in eps_list])
    nF_k, mu_k = np.tile(nF, k), np.tile(mu, k)
    # the (N+1, k) transpose that the solves take, and a view of the nodes
    # next to s_max of every row; a stack of one keeps the plain vector
    w_cols, inner = (w, None) if k == 1 else (w.reshape(k, size).T, w[h.size - 1::size])

    t = 0.0
    t_end, max_dt, cfl = config.t_end, config.max_dt, config.cfl_safety
    t_stop = t_end - 1e-15 * max(t_end, 1.0)
    dt_floor = _DT_UNDERFLOW * max(t_end, 1.0)
    band, reset = 1.0 - 2.0 * _HOLD_BAND, 1.0 - _HOLD_BAND
    # the times to land on, each with the t + dt from which a step lands on it
    # exactly (the tolerance absorbs summation drift when dt divides it); t_end
    # comes last, so a target with others after it is an output time
    targets = [(tt, tt - 1e-12 * max(1.0, tt)) for tt in (*config.output_times, t_end)]
    snap_times = []
    snapshots = [[] for _ in eps_list]
    violations = [[] for _ in eps_list]
    failures = []
    cfl_resets = []
    n_steps = n_factorizations = 0
    dt_min_seen = math.inf
    dt_max_seen = 0.0
    held_all, step_all = np.empty_like(stiffness), np.empty_like(stiffness)
    held_dt = held = last_dt = None

    def check(tnow, worst):
        """The rows' invariants when the smallest difference ``worst`` is
        negative or NaN; a stack whose every dip and excursion is within the
        log level records nothing.  Failures are recorded as (row, error);
        returns whether any row failed."""
        if (worst >= -_VIOLATION_LOG * cap and w.max() <= cap * (1.0 + _VIOLATION_LOG)
                and w.min() >= -_VIOLATION_LOG * cap):
            return False
        # the min of a row of ws is that row's worst difference, or its 0 at N
        worsts = ws.reshape(k, size).min(axis=1).tolist() if k > 1 else [worst]
        for r, (row_worst, w_row, ws_row) in enumerate(
                zip(worsts, w.reshape(k, size), ws.reshape(k, size))):
            if not row_worst >= 0.0:
                try:
                    _check_row(row_worst, w_row, ws_row[:-1], s, cap, tnow, violations[r])
                except SolverError as exc:
                    failures.append((r, exc))
        return bool(failures)

    t_target, landing = targets.pop(0)
    started = _time.perf_counter()
    while True:
        # the state at t: a non-decreasing W runs from 0 to cap, so it is in
        # range; any other goes to check.  argmin and argmax return the first
        # NaN, so a NaN fails every test, as min and max would propagate it
        np.subtract(w_hi, w_lo, out=drops)
        if k > 1:
            drops[h.size::size] = 0.0
        worst = drops.item(drops.argmin())
        if not worst >= 0.0 and check(t, worst):
            break
        if t == t_target and targets:
            for row_snapshots, w_row in zip(snapshots, w.reshape(k, size)):
                arr = w_row.copy()
                arr.flags.writeable = False
                row_snapshots.append(arr)
            snap_times.append(t)
            t_target, landing = targets.pop(0)
        if not t < t_stop:
            break

        np.add(w, nF_k, out=coef)  # the rate chi (W + nF) / h
        coef *= factor
        if shared_dt is not None:
            dt = shared_dt
        else:  # the CFL limit L = cfl / max rate (an adaptive run has k = 1)
            fast = coef.argmax()
            fastest = coef.item(fast)
            limit = cfl / fastest if fastest > 0.0 else math.inf
            if held_dt is not None and band * limit <= held_dt <= limit:
                dt = held_dt
            else:
                dt = reset * limit
        if max_dt is not None and dt > max_dt:
            dt = max_dt
        on_target = t + dt >= landing
        if on_target:
            dt = t_target - t
        if not dt_floor < dt < math.inf:  # the step is every row's, so every row fails
            exc = SolverError(f"step-size underflow: dt = {dt} at t = {t}",
                              location=(None, t))
            return [], [(eps, exc) for eps in eps_list]
        if dt == held_dt:
            factored = held
        else:  # a step clipped to an output time is factored aside, not held
            bands = step_all if on_target else held_all
            np.multiply(stiffness, dt, out=bands)
            diag = bands[:size]
            diag += mu
            factored = dpttrf(diag, bands[size:], overwrite_d=1, overwrite_e=1)[:2]
            if not on_target:
                held_dt, held = dt, factored
                n_factorizations += 1
                if shared_dt is None and dt != max_dt:  # the CFL limit reset the step
                    cfl_resets.append({"t": t, "s": s.item(fast), "dt": dt})

        # the right-hand side mu * (W + dt * coef * dW) in W itself, with dW
        # the check's forward differences, and the solve overwrites it.  The
        # Dirichlet rows need no writes: coef is 0 at both ends, so there the
        # right-hand side is W_0 = 0 and W_N = cap, which their identity rows
        # return exactly
        coef *= ws
        coef *= dt
        w += coef
        w *= mu_k
        if k == 1:
            w[-2] += dt * edge
        else:
            inner += dt * edge
        solve_banded(factored, w_cols)  # one solve for all k columns, in place

        t = t_target if on_target else t + dt
        n_steps += 1
        if dt != last_dt:
            last_dt, dt_min_seen, dt_max_seen = dt, min(dt_min_seen, dt), max(dt_max_seen, dt)

    if failures:  # the other rows march again without the failed ones
        failed = {r for r, _ in failures}
        rest = [eps for r, eps in enumerate(eps_list) if r not in failed]
        trajectories, more = _march(params, w0, config, rest, profile,
                                    shared_dt=shared_dt) if rest else ([], [])
        return trajectories, sorted([(eps_list[r], exc) for r, exc in failures] + more,
                                    key=lambda f: eps_list.index(f[0]))
    wall_time = _time.perf_counter() - started
    trajectories = []
    for eps, row_snapshots, row_violations in zip(eps_list, snapshots, violations):
        metadata = {
            "epsilon": eps,
            "n": n,
            "n_steps": n_steps,
            "n_factorizations": n_factorizations,
            "cfl_resets": list(cfl_resets),
            "dt_history": {"min": dt_min_seen if n_steps else None,
                           "max": dt_max_seen if n_steps else None,
                           "mean": (t / n_steps) if n_steps else None},
            "cfl_safety": cfl,
            "tolerances": {"cap_slack": _CAP_SLACK, "monotone_slack": _MONOTONE_SLACK},
            "violations": row_violations,
            "wall_time_s": wall_time,
            "mesh": {"N": h.size, "s_max": float(s[-1]), "s1": float(s[1])},
        }
        trajectories.append(Trajectory(
            s=s, epsilon=eps, times=tuple(snap_times), snapshots=tuple(row_snapshots),
            far_field=cap, metadata=metadata))
    return trajectories, []


def _check_row(worst: float, w, drops, s, cap: float, tnow: float, violations: list) -> None:
    """The invariants of one run's W whose differences ``drops`` have the
    negative (or NaN) minimum ``worst``: a non-decreasing profile within the
    slack, then 0 <= W <= cap.  Wiggles above the log level are appended to
    ``violations``; beyond the slack they raise."""
    if not worst >= -_VIOLATION_LOG * cap:
        i = int(drops.argmin())
        violations.append({"kind": "monotonicity", "t": tnow,
                           "s": float(s[i]), "magnitude": worst})
        if not worst >= -_MONOTONE_SLACK * cap:
            raise SolverError(
                f"monotonicity violated by {worst:.3e} at s = {s[i]}, t = {tnow}",
                location=(float(s[i]), tnow))
    lo, hi = float(w.min()), float(w.max())
    if not (hi <= cap * (1.0 + _VIOLATION_LOG) and lo >= -_VIOLATION_LOG * cap):
        violations.append({"kind": "range", "t": tnow,
                           "low": lo, "high": hi})
        if not (hi <= cap * (1.0 + _CAP_SLACK) and lo >= -_CAP_SLACK * cap):
            raise SolverError(
                f"range violated at t = {tnow}: [{lo:.3e}, {hi:.3e}] vs cap {cap}",
                location=(None, tnow))


def solve_banded(factors, rhs):
    """Solve the symmetric positive definite step matrix, given as its
    dpttrf ``factors`` (diagonal, off-diagonal), for ``rhs`` in place: one
    dpttrs, which does not check its input; a non-finite W is caught by the
    invariant check."""
    diag, off = factors
    return dpttrs(diag, off, rhs, overwrite_b=1)[0]


def cap_cfl_bound(h, chi, nF, cap: float, cfl_safety: float) -> float:
    """Largest admissible constant dt on cells of widths ``h``: the CFL limit
    with W at its cap, valid for every state in [0, cap].  A cell whose
    coefficient chi (cap + nF) is <= 0 or NaN sets no limit."""
    coef = np.asarray(chi)[:-1] * (cap + np.asarray(nF)[:-1])
    with np.errstate(divide="ignore"):  # a coef of 0 sets no limit
        limits = np.where(coef > 0.0, h / coef, np.inf)
    return cfl_safety * float(limits.min(initial=np.inf))


@dataclass(frozen=True)
class SweepReport:
    """Pointwise ordering of runs in decreasing epsilon at shared times."""

    eps_list: tuple
    pair_violations: tuple      # per consecutive pair: max over times/nodes of the drop
    max_violation: float
    failures: tuple             # (epsilon, message) for runs that errored


def check_resolved(key: str, eps_list, s) -> None:
    """Each cutoff must be resolved by the mesh nodes ``s``: epsilon >= 2 s_1.
    Checked for every cutoff before any step; the message opens with ``key``,
    the argument that holds the cutoffs."""
    for eps in eps_list:
        if eps < 2.0 * s[1]:
            raise ParameterError(f"{key}: {eps} is not resolved by the mesh: a cutoff "
                                 f"must be >= 2*s_1 = {2.0 * s[1]}")


def proper_sweep(params: SystemParams, config: SolverSection, profile: SignalProfile):
    """Run each cutoff of ``config.eps_list``, which must decrease strictly
    within (0, 1), from the plateau datum on the graded mesh of ``config``;
    report how well the family increases pointwise as epsilon decreases (the
    regularized solutions climb toward the proper solution).  The cutoffs
    march on one shared step, one stack per usable CPU.  Violations are
    reported magnitudes, never asserted away; a failed run is recorded, and
    the other runs of its stack march again without it, with the same bits."""
    w0 = _initial_state(params, config, config.eps_list)
    eps_list = [float(e) for e in config.eps_list]
    if any(not 0.0 < e < 1.0 for e in eps_list) or any(
            b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ParameterError(f"eps_list must be strictly decreasing within (0, 1) "
                             f"(got {eps_list})")
    check_resolved("eps_list", eps_list, w0.s)
    # a shared step holds for every state in [0, cap], so the smallest cutoff's
    # bound binds, and the discrete comparison argument orders the runs exactly
    h, nF = np.diff(w0.s), params.n * profile.F(w0.s)
    dt = min(cap_cfl_bound(h, chi_eval(eps, w0.s), nF, w0.far_field, config.cfl_safety)
             for eps in eps_list)
    trajectories, failed = _march_blocks(
        lambda block: _march(params, w0, config, block, profile, shared_dt=dt), eps_list)
    failures = [(eps, str(exc)) for eps, exc in failed]

    # every row steps on one grid, so all share their output times
    pair_violations = [
        max([0.0, *(float(np.max(wa - wb)) for wa, wb in zip(a.snapshots, b.snapshots))])
        for a, b in zip(trajectories, trajectories[1:])]
    report = SweepReport(
        eps_list=tuple(eps_list),
        pair_violations=tuple(pair_violations),
        max_violation=max(pair_violations, default=0.0),
        failures=tuple(failures),
    )
    return trajectories, report


def _march_blocks(march, eps_list):
    """``march`` of contiguous blocks of ``eps_list``, one per usable CPU, joined in
    order: the first here, each other one in a forked child that pickles back its result."""
    blocks = min(len(eps_list), len(os.sched_getaffinity(0))) \
        if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1
    cuts = [-(-len(eps_list) * b // blocks) for b in range(blocks + 1)]  # longer blocks first
    children = []
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # the child never returns into its caller's frames
                try:
                    os.close(read)
                    try:
                        payload = ("ok", march(eps_list[lo:hi]))
                    except BaseException as exc:
                        payload = ("err", exc)
                    with open(write, "wb") as pipe:  # protocol 5 keeps arrays read-only
                        pickle.dump(payload, pipe, protocol=5)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children.append((pid, open(read, "rb"), eps_list[lo:hi]))
        results = [march(eps_list[:cuts[1]])]
        while children:
            pid, pipe, block = children[0]
            with pipe:  # to EOF before waitpid: a payload can outgrow the pipe buffer
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status or not data:
                raise SolverError(f"no result for cutoffs {block} (wait status {status})")
            kind, result = pickle.loads(data)
            if kind == "err":
                raise result
            results.append(result)
    finally:
        for pid, pipe, _ in children:  # left only when this process raised
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    return [t for r in results for t in r[0]], [f for r in results for f in r[1]]


def measured_c_sub(traj: Trajectory, w0: MassFunction) -> float:
    """min{1, min over output times of W(1/2, t) / W0(1)}: the constant that
    scales s^2 W0(s) into a subsolution on [0, 1]."""
    w0_at_1 = float(np.interp(1.0, w0.s, w0.w))
    if w0_at_1 <= 0:
        raise ParameterError("W0(1) must be positive to scale a subsolution")
    vals = [float(np.interp(0.5, traj.s, w)) for w in traj.snapshots]
    return min(1.0, min(vals) / w0_at_1)

