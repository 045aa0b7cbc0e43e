"""Comparison test functions, their certified inequalities, the Riccati
comparison machinery and the blow-up indicators.

The test function with parameters (xi, delta, gamma) is

    phi(s) = a/gamma^delta * s^(-delta) - b     for s <  xi/gamma,
    phi(s) = exp(-gamma s)                      for s >= xi/gamma,

with a = xi^(delta+1)/delta * e^-xi and b = (xi/delta - 1) e^-xi chosen so
that phi and phi_s are continuous at the branch point.  It satisfies, for
admissible (xi, delta) and any gamma > 4/(R - rho),

    L phi := n^2 s^((2n-2)/n) phi_ss + 4(n^2-n) s^((n-2)/n) phi_s
             - n F phi_s - n F_s phi  >=  k0 gamma^(2/n) phi      a.e.,

with k0 = min{c1, c2} built from the two branch constants, and

    integral phi^2 / |phi_s| ds  <=  K0 / gamma^2.

K0 here is a*xi^(2-delta)/(delta(2-delta)) + e^-xi: the inner-branch
integral evaluates to a*xi^(2-delta)/(delta(2-delta) gamma^2), so the
constant must carry the 1/delta factor; the loose variant without it
(recorded as ``K0_loose``) fails to bound the integral for delta < 1.

The functional y(t) = integral phi W ds then dominates the solution of the
Bernoulli problem z' = A z + B z^2 with A = k0 gamma^(2/n), B = gamma^2/(2 K0),
whose finite blow-up time T = log(1 + A/(B z0))/A drives the blow-up
argument.  At finite cutoff epsilon the measured y stays bounded by
cap * integral phi while z diverges, so the domination verdict must
eventually fail near T; reports label it as a finite-epsilon trend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError, SelectionError
from .params import SystemParams, TestFnParams, delta_quadratic, sphere_area, validate
from .quadrature import integrate_adaptive
from .signal import SignalProfile
from .solver import Trajectory
from .transform import estimate_origin_limit

ANALYTIC_SLACK = 1e-9     # closed-form inequality verdicts
COUPLED_SLACK = 1e-6      # verdicts coupled to a discretized run


@dataclass(frozen=True)
class TestFunction:
    """phi with its derived constants; immutable."""

    __test__ = False  # not a pytest class despite the name

    n: int
    alpha: float
    f0: float
    R: float
    rho: float
    xi: float
    delta: float
    gamma: float
    a: float
    b: float
    c1: float
    c2: float
    k0: float
    K0: float
    K0_loose: float

    @property
    def kink(self) -> float:
        return self.xi / self.gamma


def build_testfunction(params: SystemParams, xi: float, delta: float,
                       gamma: float) -> TestFunction:
    """Compute a, b, c1, c2, k0, K0 and verify their positivity.

    c2 <= 0 means delta contradicts its lower bound and the construction is
    infeasible; this raises rather than returning a broken object.
    """
    params = validate(params)
    TestFnParams(xi=xi, delta=delta, gamma=gamma).validate_for(params)
    n = params.n
    a = xi ** (delta + 1.0) / delta * math.exp(-xi)
    b = (xi / delta - 1.0) * math.exp(-xi)
    c1 = (n * n * xi - 4.0 * (n * n - n)) * xi ** ((n - 2.0) / n)
    c2 = delta_quadratic(n, params.alpha, params.f0, delta) * xi ** (-2.0 / n)
    if c2 <= 0.0:
        raise ParameterError(
            f"c2 = {c2} <= 0: delta = {delta} does not exceed the admissible "
            f"lower bound {params.delta_bound} strictly enough",
            [("delta", delta, f"> {params.delta_bound}")])
    if c1 <= 0.0:
        raise ParameterError(f"c1 = {c1} <= 0: xi = {xi} must exceed 4 - 4/n")
    K0 = a * xi ** (2.0 - delta) / (delta * (2.0 - delta)) + math.exp(-xi)
    K0_loose = a * xi ** (2.0 - delta) / (2.0 - delta) + math.exp(-xi)
    return TestFunction(n=n, alpha=params.alpha, f0=params.f0, R=params.R, rho=params.rho,
                        xi=xi, delta=delta, gamma=gamma, a=a, b=b, c1=c1, c2=c2,
                        k0=min(c1, c2), K0=K0, K0_loose=K0_loose)


def phi_eval(tf: TestFunction, s):
    """(phi, phi_s, phi_ss) at s > 0; the branch point itself takes the
    exponential branch."""
    scalar = np.ndim(s) == 0
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr <= 0.0):
        raise ParameterError("s must be > 0", [("s", s, "> 0")])
    knot = tf.kink
    A = tf.a / tf.gamma ** tf.delta
    inner = s_arr < knot
    phi = np.empty_like(s_arr)
    phis = np.empty_like(s_arr)
    phiss = np.empty_like(s_arr)
    si = s_arr[inner]
    phi[inner] = A * si ** (-tf.delta) - tf.b
    phis[inner] = -A * tf.delta * si ** (-tf.delta - 1.0)
    phiss[inner] = A * tf.delta * (tf.delta + 1.0) * si ** (-tf.delta - 2.0)
    so = s_arr[~inner]
    with np.errstate(under="ignore"):
        e = np.exp(-tf.gamma * so)
    phi[~inner] = e
    phis[~inner] = -tf.gamma * e
    phiss[~inner] = tf.gamma * tf.gamma * e
    if scalar:
        return float(phi[0]), float(phis[0]), float(phiss[0])
    return phi, phis, phiss


# --- differential inequality ---------------------------------------------


@dataclass(frozen=True)
class OdeMarginReport:
    min_margin: float
    argmin_s: float
    threshold: float
    passed: bool
    n_points: int
    diffusion_rate_above_kink: float  # just above xi/gamma; attains c1*gamma^(2/n)
    k0_rate: float                  # k0 * gamma^(2/n)
    grid: np.ndarray = field(repr=False)     # the scanned s values
    margins: np.ndarray = field(repr=False)  # L phi / phi - k0 gamma^(2/n) on the grid


def margin_grid(tf: TestFunction, profile: SignalProfile) -> np.ndarray:
    """Log-spaced scan grid of 10^4 points on [1e-8, 10] keeping one spacing
    away from the non-smooth points (the branch point and the bridge
    breakpoints)."""
    g = np.geomspace(1e-8, 10.0, 10_000)
    spacing = math.log(g[1] / g[0])
    keep = np.ones(g.size, dtype=bool)
    for kink in (tf.kink, profile.s_lower, profile.s_upper):
        if kink > 0:
            keep &= np.abs(np.log(g / kink)) > spacing
    return g[keep]


def default_verification_profile(tf: TestFunction) -> SignalProfile:
    # direct breakpoints: the inner-branch estimates are tied to the literal
    # case labels of F and F_s, and fail for some admissible parameter sets
    # under the transformed breakpoints (see the signal module docs)
    return SignalProfile(tf.f0, tf.alpha, tf.R, tf.rho, tf.n, breakpoints="direct")


def l_phi_rate(tf: TestFunction, profile: SignalProfile, s):
    """L phi / phi on the grid s, branch by branch.

    On the exponential branch the factor e^(-gamma s) cancels exactly, so the
    rate is formed without it (dividing the underflowed factor out would turn
    far-field points into 0/0 for large gamma).
    """
    s = np.asarray(s, dtype=float)
    n = tf.n
    p_hi = (2.0 * n - 2.0) / n
    p_lo = (n - 2.0) / n
    F = np.asarray(profile.F(s), dtype=float)
    Fs = np.asarray(profile.F_s(s), dtype=float)
    out = np.empty_like(s)
    inner = s < tf.kink
    if np.any(inner):
        si = s[inner]
        phi, phis, phiss = phi_eval(tf, si)
        L = (n * n * np.power(si, p_hi) * phiss
             + 4.0 * (n * n - n) * np.power(si, p_lo) * phis
             - n * F[inner] * phis - n * Fs[inner] * phi)
        out[inner] = L / phi
    if np.any(~inner):
        so = s[~inner]
        g = tf.gamma
        out[~inner] = (n * n * np.power(so, p_hi) * g * g
                       - 4.0 * (n * n - n) * np.power(so, p_lo) * g
                       + n * g * F[~inner] - n * Fs[~inner])
    return out


def verify_ode_inequality(tf: TestFunction,
                          profile: SignalProfile | None = None) -> OdeMarginReport:
    """Scan (L phi - k0 gamma^(2/n) phi)/phi over the margin grid; pass iff
    the minimum stays above -ANALYTIC_SLACK.  Also reports the diffusion-only
    rate just above the branch point, which attains c1 * gamma^(2/n), the
    sanity anchor for k0 = min{c1, c2}."""
    if profile is None:
        profile = default_verification_profile(tf)
    grid = margin_grid(tf, profile)
    k0_rate = tf.k0 * tf.gamma ** (2.0 / tf.n)
    rate = l_phi_rate(tf, profile, grid)
    margin = rate - k0_rate
    i = int(np.argmin(margin))

    above = grid[grid >= tf.kink]
    if above.size:
        s_a = above[0]
        n = tf.n
        g = tf.gamma
        diff_rate = (n * n * s_a ** ((2.0 * n - 2.0) / n) * g * g
                     - 4.0 * (n * n - n) * s_a ** ((n - 2.0) / n) * g)
    else:
        diff_rate = math.nan
    return OdeMarginReport(
        min_margin=float(margin[i]), argmin_s=float(grid[i]), threshold=ANALYTIC_SLACK,
        passed=bool(margin[i] >= -ANALYTIC_SLACK), n_points=int(grid.size),
        diffusion_rate_above_kink=float(diff_rate), k0_rate=k0_rate,
        grid=grid, margins=margin)


# --- integral bound --------------------------------------------------------


@dataclass(frozen=True)
class IntegralBoundReport:
    numeric: float
    bound: float
    inner_piece_closed: float
    outer_piece_closed: float
    outer_piece_numeric: float
    K0: float
    K0_loose: float
    passed: bool


def verify_integral_bound(tf: TestFunction) -> IntegralBoundReport:
    """Adaptive quadrature of integral phi^2/|phi_s| against K0/gamma^2."""
    A = tf.a / tf.gamma ** tf.delta
    knot = tf.kink
    d = tf.delta

    def inner(s):
        # (A s^-d - b)^2 / (A d s^(-d-1)) expanded so no factor overflows near 0
        return (A * s ** (1.0 - d) - 2.0 * tf.b * s + tf.b * tf.b / A * s ** (1.0 + d)) / d

    def outer(s):
        return math.exp(-tf.gamma * s) / tf.gamma

    inner_num = integrate_adaptive(inner, 0.0, knot, rtol=1e-12)
    outer_num = integrate_adaptive(outer, knot, math.inf, rtol=1e-12)
    numeric = inner_num + outer_num
    g2 = tf.gamma ** 2
    bound = tf.K0 / g2
    return IntegralBoundReport(
        numeric=numeric, bound=bound,
        inner_piece_closed=tf.a * tf.xi ** (2.0 - tf.delta) / (tf.delta * (2.0 - tf.delta) * g2),
        outer_piece_closed=math.exp(-tf.xi) / g2,
        outer_piece_numeric=outer_num,
        K0=tf.K0, K0_loose=tf.K0_loose,
        passed=bool(numeric <= bound * (1.0 + ANALYTIC_SLACK)))


# --- exact integrals of phi against piecewise-linear data ------------------


def integral_phi_linear(tf: TestFunction, s_nodes, w_nodes) -> float:
    """integral phi(s) * W(s) ds over [s_0, s_end] for piecewise-linear W.

    Exact per cell (closed antiderivatives on both branches), so the result
    is robust for arbitrarily large gamma where the mass of phi sits far
    inside the first few cells.
    """
    s = np.asarray(s_nodes, dtype=float)
    w = np.asarray(w_nodes, dtype=float)
    knot = tf.kink
    if s[0] < knot < s[-1] and knot not in s:
        k = int(np.searchsorted(s, knot))
        wk = np.interp(knot, s, w)
        s = np.insert(s, k, knot)
        w = np.insert(w, k, wk)
    a, b_ = s[:-1], s[1:]
    wa, wb = w[:-1], w[1:]
    q = (wb - wa) / (b_ - a)
    p = wa - q * a
    A = tf.a / tf.gamma ** tf.delta
    d = tf.delta
    total = 0.0
    inner = b_ <= knot
    if np.any(inner):
        ai, bi, pi, qi = a[inner], b_[inner], p[inner], q[inner]
        with np.errstate(invalid="ignore"):
            pow1 = (np.power(bi, 1.0 - d) - np.power(ai, 1.0 - d)) / (1.0 - d)
            pow2 = (np.power(bi, 2.0 - d) - np.power(ai, 2.0 - d)) / (2.0 - d)
        total += float(np.sum(A * (pi * pow1 + qi * pow2)
                              - tf.b * (pi * (bi - ai) + 0.5 * qi * (bi * bi - ai * ai))))
    outer = ~inner
    if np.any(outer):
        ao, bo, po, qo = a[outer], b_[outer], p[outer], q[outer]
        g = tf.gamma
        with np.errstate(under="ignore"):
            ea = np.exp(-g * ao)
            eb = np.exp(-g * bo)
        total += float(np.sum(po * (ea - eb) / g
                              + qo * ((ao / g + 1.0 / (g * g)) * ea
                                      - (bo / g + 1.0 / (g * g)) * eb)))
    return total


def integral_phi_total(tf: TestFunction) -> float:
    """Closed form of integral_0^infinity phi(s) ds (finite since delta < 1)."""
    knot = tf.kink
    A = tf.a / tf.gamma ** tf.delta
    return (A * knot ** (1.0 - tf.delta) / (1.0 - tf.delta) - tf.b * knot
            + math.exp(-tf.xi) / tf.gamma)


# --- the Bernoulli comparison solution ------------------------------------


@dataclass(frozen=True)
class RiccatiSolution:
    """Explicit solution of z' = A z + B z^2, z(t1) = y1 > 0; evaluable on
    [t1, t1 + T) with T = log(1 + A/(B y1))/A (T = infinity when B = 0)."""

    A: float
    B: float
    y1: float
    t1: float
    blow_up_time: float

    def __call__(self, t):
        scalar = np.ndim(t) == 0
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        tau = t_arr - self.t1
        if np.any(tau < 0) or np.any(tau >= self.blow_up_time):
            raise NumericalError(
                f"t outside [t1, t1 + T) with T = {self.blow_up_time}",
                blow_up_time=self.blow_up_time)
        if self.B == 0.0:
            out = self.y1 * np.exp(self.A * tau)
        else:
            out = 1.0 / ((1.0 / self.y1 + self.B / self.A) * np.exp(-self.A * tau)
                         - self.B / self.A)
        return float(out[0]) if scalar else out


def riccati(A: float, B: float, y1: float, t1: float) -> RiccatiSolution:
    if A <= 0 or y1 <= 0 or B < 0:
        raise ParameterError(
            f"need A > 0, y1 > 0, B >= 0 (got A={A}, B={B}, y1={y1})")
    T = math.inf if B == 0.0 else math.log1p(A / (B * y1)) / A
    return RiccatiSolution(A=A, B=B, y1=y1, t1=t1, blow_up_time=T)


# --- blow-up parameter selection -------------------------------------------


@dataclass(frozen=True)
class BlowupSelection:
    kappa: float
    s0: float
    gamma: float
    diagnostics: dict


def select_blowup_params(t0: float, eta: float, c0: float, c_sub: float,
                         params: SystemParams, tf_seed: TestFnParams,
                         w_probe, gamma_cap: float = 2.0 ** 60) -> BlowupSelection:
    """Pick (kappa, s0, gamma) for the blow-up window (t0, t0 + eta).

    kappa saturates its ceiling k0*eta/8.  s0 is found by bisection as the
    largest value below its smallness cap whose cubic-sinh lower bound still
    dominates k0*K0/kappa.  gamma grows geometrically (factor 2) from
    max{4/(R-rho), (xi/kappa)^(n/2)} until the probe point kappa*gamma^((2-n)/n)
    drops below s0 and the measured-W inequality

        exp(-2 kappa gamma^(2/n))
          + 2 k0 K0 exp(-kappa gamma^(2/n)) / (W gamma^((n-2)/n))  <=  1

    holds, with W = w_probe(kappa*gamma^((2-n)/n)) measured at t0 + eta/2
    from a finite-epsilon run (the report labels that substitution).
    """
    if eta <= 0 or c_sub <= 0 or c0 <= 0:
        raise ParameterError(f"need eta, c0, c_sub > 0 (got {eta}, {c0}, {c_sub})")
    params = validate(params)
    n = params.n
    seed_gamma = max(tf_seed.gamma, 8.0 / (params.R - params.rho))
    tf = build_testfunction(params, tf_seed.xi, tf_seed.delta, seed_gamma)
    k0, K0 = tf.k0, tf.K0
    kappa = k0 * eta / 8.0

    expo = 2.0 / (n - 2.0)
    s_cap = (2.0 * kappa ** (n / (n - 2.0)) / (3.0 * (n - 2.0))) ** ((n - 2.0) / 2.0)
    upper = min(s_cap * (1.0 - 1e-9), 1.0 - 1e-12)
    need = k0 * K0 / kappa

    def sinh_bound(s):
        with np.errstate(over="ignore"):
            return c0 * c_sub * s ** 3 * np.sinh(kappa * (kappa / s) ** expo)

    if sinh_bound(upper) >= need:
        s0 = upper
    else:
        lo = upper * 1e-12
        for _ in range(400):
            if sinh_bound(lo) >= need:
                break
            lo *= 0.5
        else:
            raise SelectionError("no s0 satisfies the cubic-sinh requirement",
                                 failing="sinh_condition")
        hi = upper
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if sinh_bound(mid) >= need:
                lo = mid
            else:
                hi = mid
        s0 = lo
    if not (0.0 < s0 < s_cap and sinh_bound(s0) >= need):
        raise SelectionError(f"s0 selection inconsistent: s0 = {s0}",
                             failing="sinh_condition")

    floor_geometry = 4.0 / (params.R - params.rho)
    floor_kappa = (tf_seed.xi / kappa) ** (n / 2.0)
    gamma = max(floor_geometry, floor_kappa) * (1.0 + 1e-9)
    probe_s = probe_w = None
    while True:
        probe_s = kappa * gamma ** ((2.0 - n) / n)
        if probe_s < s0:
            X = kappa * gamma ** (2.0 / n)
            probe_w = float(w_probe(probe_s))
            if probe_w > 0.0:
                with np.errstate(under="ignore"):
                    lhs = math.exp(-2.0 * X) + (2.0 * k0 * K0 /
                                                (probe_w * gamma ** ((n - 2.0) / n))) * math.exp(-X)
                if lhs <= 1.0:
                    break
        gamma *= 2.0
        if gamma > gamma_cap:
            which = "probe_below_s0" if (probe_s is None or probe_s >= s0) \
                else "measured_w_inequality"
            raise SelectionError(
                f"gamma search exceeded cap {gamma_cap}", failing=which,
                probe_s=probe_s, probe_w=probe_w)
    diagnostics = {
        "kappa_rule": "k0*eta/8",
        "k0": k0, "K0": K0,
        "s0_upper_bound": s_cap,
        "s0_sinh_value": float(sinh_bound(s0)),
        "s0_sinh_required": need,
        "gamma_floor_geometry": floor_geometry,
        "gamma_floor_kappa": floor_kappa,
        "probe_s": probe_s,
        "probe_w": probe_w,
        "exp_inequality_lhs": lhs,
        "w_source": "finite-epsilon run at t0 + eta/2",
    }
    return BlowupSelection(kappa=kappa, s0=s0, gamma=gamma, diagnostics=diagnostics)


# --- y functional and indicators -------------------------------------------


@dataclass(frozen=True)
class YFunctionalReport:
    times: tuple
    y: tuple
    z: tuple                    # Riccati comparison values; nan past blow-up
    cap_bound: float
    cap_ok: bool
    c_gamma: float
    lower_bound_t1: float
    lower_ok: bool
    riccati_A: float
    riccati_B: float
    riccati_T: float
    domination_ok: bool
    first_violation_time: float | None
    tolerance: float
    labels: dict


def y_functional(traj: Trajectory, tf: TestFunction, kappa: float,
                 t1: float) -> YFunctionalReport:
    """y(t) = integral phi W ds along the trajectory, with the uniform cap
    check, the measured lower bound at t1, and the Riccati domination verdict
    on the overlap of horizons (a finite-epsilon trend, not a limit claim)."""
    if traj.times[-1] < t1 - 1e-12:
        raise ParameterError(f"trajectory horizon {traj.times[-1]} shorter than t1 = {t1}")
    s = traj.mesh.nodes
    sel = [(t, w) for t, w in zip(traj.times, traj.snapshots) if t >= t1 - 1e-12]
    times = tuple(t for t, _ in sel)
    y_vals = tuple(integral_phi_linear(tf, s, w) for _, w in sel)

    cap_bound = traj.far_field * integral_phi_total(tf)
    cap_ok = all(y <= cap_bound * (1.0 + 1e-12) for y in y_vals)

    n = tf.n
    probe_s = kappa * tf.gamma ** ((2.0 - n) / n)
    c_gamma = float(np.interp(probe_s, s, sel[0][1]))
    with np.errstate(under="ignore"):
        lower = c_gamma / tf.gamma * math.exp(-kappa * tf.gamma ** (2.0 / n))
    lower_ok = y_vals[0] >= lower * (1.0 - ANALYTIC_SLACK)

    A = tf.k0 * tf.gamma ** (2.0 / n)
    B = tf.gamma ** 2 / (2.0 * tf.K0)
    dom_ok = True
    first_violation = None
    T = math.inf
    z_vals = [math.nan] * len(times)
    if y_vals[0] > 0.0:
        z = riccati(A, B, y_vals[0], times[0])
        T = z.blow_up_time
        tol_abs = COUPLED_SLACK * cap_bound
        for k, (t, y) in enumerate(zip(times, y_vals)):
            if t - times[0] >= T:
                break
            z_vals[k] = z(t)
            if dom_ok and y < z_vals[k] - tol_abs:
                dom_ok = False
                first_violation = t
    return YFunctionalReport(
        times=times, y=y_vals, z=tuple(z_vals), cap_bound=cap_bound, cap_ok=cap_ok,
        c_gamma=c_gamma, lower_bound_t1=lower, lower_ok=bool(lower_ok),
        riccati_A=A, riccati_B=B, riccati_T=T,
        domination_ok=dom_ok, first_violation_time=first_violation,
        tolerance=COUPLED_SLACK,
        labels={"finite_epsilon_trend": True,
                "epsilon": traj.epsilon,
                "w_substitution": "measured finite-epsilon W in place of the proper solution"})


@dataclass(frozen=True)
class BlowupReport:
    """Per-run blow-up indicators with provenance; values are reported, the
    sup-indicator and the Lipschitz estimate are never played against each
    other."""

    epsilon: float
    betas: tuple
    sup_w_over_s_beta: dict        # beta -> (value, s, t)
    lipschitz_estimate: float
    lipschitz_location: tuple
    atom_estimate: float
    provenance: dict
    y_report: YFunctionalReport | None = None
    verdicts: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "epsilon": self.epsilon,
            "betas": list(self.betas),
            "sup_w_over_s_beta": {repr(k): {"value": v[0], "s": v[1], "t": v[2]}
                                  for k, v in self.sup_w_over_s_beta.items()},
            "lipschitz_estimate": self.lipschitz_estimate,
            "lipschitz_location": {"s": self.lipschitz_location[0],
                                   "t": self.lipschitz_location[1]},
            "atom_estimate": self.atom_estimate,
            "provenance": self.provenance,
            "verdicts": self.verdicts,
        }
        if self.y_report is not None:
            r = self.y_report
            out["y_functional"] = {
                "times": list(r.times), "y": list(r.y), "z": list(r.z),
                "cap_bound": r.cap_bound, "cap_ok": r.cap_ok,
                "c_gamma": r.c_gamma,
                "lower_bound_t1": r.lower_bound_t1, "lower_ok": r.lower_ok,
                "riccati": {"A": r.riccati_A, "B": r.riccati_B, "T": r.riccati_T},
                "domination_ok": r.domination_ok,
                "first_violation_time": r.first_violation_time,
                "tolerance": r.tolerance,
                "labels": r.labels,
            }
        return out


def indicator_series(traj: Trajectory, beta: float) -> list:
    """sup W/s^beta over the probes 0 < s <= s_max/2 at each snapshot, as
    (t, value, s) rows."""
    s = traj.mesh.nodes
    probe = (s > 0.0) & (s <= traj.mesh.s_max / 2.0)
    sp = s[probe]
    weights = sp ** (-beta)
    rows = []
    for t, w in zip(traj.times, traj.snapshots):
        vals = w[probe] * weights
        i = int(np.argmax(vals))
        rows.append((t, float(vals[i]), float(sp[i])))
    return rows


def blowup_indicator(traj: Trajectory, betas, y_report: YFunctionalReport | None = None
                     ) -> BlowupReport:
    """sup W/s^beta over probes s <= s_max/2 and all snapshot times, plus the
    forward-difference Lipschitz estimate and the origin-atom estimate."""
    betas = tuple(float(b) for b in betas)
    if any(b < 1.0 for b in betas):
        raise ParameterError("betas must be >= 1")
    sup = {}
    for beta in betas:
        # max keeps the earliest snapshot on ties
        t, value, s_at = max(indicator_series(traj, beta), key=lambda row: row[1])
        sup[beta] = (value, s_at, t)
    s = traj.mesh.nodes
    probe = (s > 0.0) & (s <= traj.mesh.s_max / 2.0)
    h = np.diff(s)
    probe_cell = probe[:-1]
    lip, lip_where = -math.inf, (math.nan, math.nan)
    for t, w in zip(traj.times, traj.snapshots):
        slopes = (w[1:] - w[:-1])[probe_cell] / h[probe_cell]
        i = int(np.argmax(slopes))
        if slopes[i] > lip:
            lip, lip_where = float(slopes[i]), (float(s[:-1][probe_cell][i]), t)
    final = traj.mass_function(len(traj.times) - 1)
    n = traj.n
    atom = sphere_area(n) / n * estimate_origin_limit(final)
    verdicts = {"finite_epsilon_trend": True}
    if y_report is not None:
        verdicts.update(cap_ok=y_report.cap_ok,
                        lower_bound_ok=y_report.lower_ok,
                        riccati_domination_ok=y_report.domination_ok)
    return BlowupReport(
        epsilon=traj.epsilon, betas=betas, sup_w_over_s_beta=sup,
        lipschitz_estimate=lip, lipschitz_location=lip_where,
        atom_estimate=atom,
        provenance={"N": traj.mesh.N, "s_max": traj.mesh.s_max,
                    "times": list(traj.times), "epsilon": traj.epsilon,
                    "atom_model": "jump-plus-power extrapolation at the origin"},
        y_report=y_report, verdicts=verdicts)
