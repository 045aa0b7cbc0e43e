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

with k0 = min{c1, c2} built from the two branch constants (certified by a
lower bound on each cell of a geometric cover built from the tuple, with a
stated inequality for each tail; see ``verify_ode_inequality``), and

    integral phi^2 / |phi_s| ds  <=  K0 / gamma^2.

K0 here is a*xi^(2-delta)/(delta(2-delta)) + e^-xi: the leading term of
the inner-branch integral is a*xi^(2-delta)/(delta(2-delta) gamma^2), so
the constant must carry the 1/delta factor.  Both branches integrate in
closed form, so the bound is an exact identity: K0/gamma^2 exceeds the
integral by (b k^2/delta)(1 - (1 - delta/xi)/(2 + delta)) with k = xi/gamma,
which is positive because xi > delta makes b > 0.

The functional y(t) = integral phi W ds then dominates the solution of the
Bernoulli problem z' = A z + B z^2 with A = k0 gamma^(2/n), B = gamma^2/(2 K0),
whose finite blow-up time T = log(1 + A/(B z0))/A drives the blow-up
argument.  At finite cutoff epsilon the measured y stays bounded by
cap * integral phi while z diverges, so the domination verdict must
eventually fail near T; reports label it as a finite-epsilon trend.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ParameterError, SelectionError
from .params import SystemParams, delta_quadratic, validate_testfn
from .signal import SignalProfile
from .solver import Trajectory

ANALYTIC_SLACK = 1e-9     # closed-form inequality verdicts
COUPLED_SLACK = 1e-6      # verdicts coupled to a discretized run
GAMMA_CAP = 2.0 ** 60     # the blow-up selection's gamma search gives up beyond this


@dataclass(frozen=True)
class TestFunction:
    """phi with its derived constants; immutable.  ``verify_ode_inequality``
    also builds one whose fields other than n are (k, 1) columns, one row per
    test function of a chunk."""

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

    @property
    def kink(self) -> float:
        return self.xi / self.gamma

    @functools.cached_property
    def profile(self) -> SignalProfile:
        """The forcing profile of (f0, alpha, R, rho, n), the one the solver
        marches; ``build_testfunction`` has validated its parameters."""
        return SignalProfile(self.f0, self.alpha, self.R, self.rho, self.n, checked=True)


def build_testfunction(params: SystemParams, xi: float, delta: float,
                       gamma: float) -> TestFunction:
    """Compute a, b, c1, c2, k0, K0 and verify their positivity.

    c2 <= 0 means delta contradicts its lower bound and the construction is
    infeasible; this raises rather than returning a broken object.
    """
    validate_testfn(params, xi, delta, gamma)
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
    if not math.isfinite(gamma * gamma):
        # the integral bound K0/gamma^2 needs gamma^2 as a double
        raise ParameterError(f"gamma = {gamma} is too large: gamma^2 overflows a double",
                             [("gamma", gamma, "small enough that gamma^2 is finite")])
    K0 = a * xi ** (2.0 - delta) / (delta * (2.0 - delta)) + math.exp(-xi)
    return TestFunction(n=n, alpha=params.alpha, f0=params.f0, R=params.R, rho=params.rho,
                        xi=xi, delta=delta, gamma=gamma, a=a, b=b, c1=c1, c2=c2,
                        k0=min(c1, c2), K0=K0)


# --- differential inequality ---------------------------------------------

CELL_RATIO = 1.02   # the cover's cell ratio before any bisection
CELL_PAD = 1e-12    # each term of a bound is lowered by this share of its size
BISECTIONS = 32     # rounds of bisecting the cells whose bound falls short
MAX_SHORT = 4096    # more short cells than this fail the tuple unbisected
CHUNK = 8           # tuples whose covers are bounded together, as rows of one array


@dataclass(frozen=True)
class OdeMarginReport:
    min_margin: float   # passed: a lower bound of L phi/phi - k0 gamma^(2/n) on (0, inf)
    argmin_cell: tuple  # (lo, hi) where min_margin is bounded; (s, s) for a sampled point
    threshold: float
    passed: bool
    n_bisections: int   # cells bisected; the forcing is evaluated at n_cells + 1 points
    n_power_cells: int  # cells below xi/gamma, on the power branch
    lower_tail: float   # the margin's bound below the cover; -inf if not shown
    k0_rate: float      # k0 * gamma^(2/n)
    cells: np.ndarray = field(repr=False)  # rows (lo, hi, margin bound), ascending


def _ends(tf: TestFunction, s: np.ndarray) -> np.ndarray:
    """The rows s, m = s^(-2/n), F, F_s and rho = q/(q - b) at the points s,
    with q = a (gamma s)^-delta; rho means something only below xi/gamma.
    Points of shape (k, m) against a ``tf`` of columns give a (5, k, m) block."""
    F, Fs = tf.profile.forcing(s)
    ends = np.empty((5, *s.shape))
    ends[0], ends[2], ends[3] = s, F, Fs
    np.power(s, -2.0 / tf.n, out=ends[1])
    q = np.multiply(tf.gamma, s, out=ends[4])
    np.power(q, -tf.delta, out=q)
    q *= tf.a
    with np.errstate(divide="ignore"):  # q = b is possible above xi/gamma
        np.divide(q, q - tf.b, out=q)
    return ends


def _rates(tf: TestFunction, ends: np.ndarray) -> np.ndarray:
    """L phi / phi at the points whose rows ``_ends`` gives, with the
    forcing (F, F_s) of the profile the solver marches.

    With q = a gamma^-delta s^-delta the power branch has phi = q - b,
    phi_s = -delta q/s and phi_ss = delta (delta+1) q/s^2, so with
    m = s^(-2/n), rho = q/(q - b) and C = n^2 (delta+1) - 4(n^2-n) (negative,
    as delta < 1 and n >= 3) it is delta rho (C m + n F/s) - n F_s.  On the
    exponential branch the factor e^(-gamma s) cancels exactly, so the rate
    gamma s m (n^2 gamma s - 4(n^2-n)) + n (gamma F - F_s) is formed without
    it (dividing the underflowed factor out would turn far-field points into
    0/0 for large gamma).
    """
    s, m, F, Fs, rho = ends
    n, g, d = tf.n, tf.gamma, tf.delta
    gs = g * s
    # both branches are formed at every point, each is kept where it holds
    with np.errstate(over="ignore", invalid="ignore"):
        power = d * rho * (m * (n * n * (d + 1.0) - 4.0 * (n * n - n)) + n * F / s)
        rate = np.where(s < tf.kink, power, gs * m * (n * n * gs - 4.0 * (n * n - n)) + n * g * F)
    return rate - n * Fs


def _cell_margins(tf: TestFunction, lo: np.ndarray, hi: np.ndarray, k0_rate: float):
    """A lower bound of L phi / phi - k0 gamma^(2/n) on each cell [lo, hi],
    from the rows ``_ends`` gives at its ends: each term at its worse end."""
    sa, ma, Fa, Fsa, ra = lo
    sb, mb, Fb, _, rb = hi
    n, g, d = tf.n, tf.gamma, tf.delta
    power = sb <= tf.kink

    def terms():  # one at a time, so that few arrays are alive together
        yield np.where(power, d * (n * n * (d + 1.0) - 4.0 * (n * n - n)) * rb * ma,
                       n * n * g * g * sa * sa * ma)
        yield np.where(power, n * d * ra * Fb / sb, -4.0 * (n * n - n) * g * sb * mb)
        yield np.where(power, 0.0, n * g * Fa)
        yield -n * Fsa

    with np.errstate(over="ignore", invalid="ignore"):
        return sum(t - CELL_PAD * np.abs(t) for t in terms()) - k0_rate * (1.0 + CELL_PAD)


def verify_ode_inequality(tfs):
    """Certify L phi / phi >= k0 gamma^(2/n) - ANALYTIC_SLACK on (0, inf)
    for each test function of ``tfs``, with the forcing the solver marches,
    on a cover of cells; yields one report per test function, in order.

    The cells have ratio CELL_RATIO from lo = 1e-4 min(xi/gamma, (R-rho)^n)
    to the first edge hi >= 10 max(xi/gamma, (R+rho)^n), and xi/gamma,
    (R-rho)^n and (R+rho)^n are edges, so each cell lies on one branch.  F is
    non-decreasing, F_s and F/s non-increasing (F is concave, F(0) = 0) and
    rho increasing, so on a cell [a, b] each term of the rate is bounded at
    its worse end, with C = n^2 (delta+1) - 4(n^2-n) < 0:

        exponential: n^2 gamma^2 a^(2-2/n) - 4(n^2-n) gamma b^(1-2/n)
                     + n gamma F(a) - n F_s(a),
        power:       delta C rho(b) a^(-2/n) + n delta rho(a) F(b)/b - n F_s(a),

    each term lowered by CELL_PAD times its size for rounding.  Up to CHUNK
    consecutive test functions of one n are bounded together: their covers
    are the rows of one array and their parameters (k, 1) columns, so each
    row gets the bits it would get alone.  A cell whose bound is below
    -ANALYTIC_SLACK is bisected at its geometric midpoint, for at most
    BISECTIONS rounds of at most MAX_SHORT cells of its own test function; a
    rate sampled at a midpoint below the threshold fails that test function
    at once, and its report gives that point.

    The tails.  For s >= hi, F is constant, F_s = 0 and the rate increases
    for s > 2(n-2)/(n gamma), which lies below xi/gamma as xi > 4 - 4/n, so
    the last cell's bound, which holds at hi, holds beyond it.  For s <= lo,
    F = c s^beta with c = f0/(n-alpha), beta = (n-alpha)/n < delta, and
    1 <= rho <= rho(lo), so the rate is at least g(s) = delta C rho(lo)
    s^(-2/n) + n c (delta - beta) s^(beta-1): s^(-2/n) times a bracket that
    decreases in s (beta - 1 < -2/n), so g >= g(lo) on (0, lo] once
    g(lo) >= 0.  A negative g(lo) shows nothing and fails the tuple.
    """
    chunk = []
    for tf in tfs:
        if len(chunk) == CHUNK or chunk and tf.n != chunk[0].n:
            yield from _certify_chunk(chunk)
            chunk = []
        chunk.append(tf)
    if chunk:
        yield from _certify_chunk(chunk)


def _certify_chunk(chunk):
    """The reports of test functions of one n, their first bounds computed
    on one array of covers."""
    n = chunk[0].n
    names = [f.name for f in fields(TestFunction) if f.name != "n"]
    columns = np.array([[getattr(one, name) for name in names] for one in chunk]).T[:, :, None]
    tf = TestFunction(n=n, **dict(zip(names, columns)))
    profile, kink = tf.profile, tf.kink
    lo = 1e-4 * np.minimum(kink, profile.s_lower)
    # Python's power and log, as for one tuple: numpy's round some points differently
    k0_rate = [one.k0 * one.gamma ** (2.0 / n) for one in chunk]
    count = np.array([[float(math.ceil(math.log(x) / math.log(CELL_RATIO)))]
                      for x in (10.0 * np.maximum(kink, profile.s_upper) / lo).ravel().tolist()])
    # row j has the exponents 0..count_j of its edges, then copies of count_j,
    # whose edges sort after its kinks and whose empty cells are dropped
    geometric = np.minimum(np.arange(count.max() + 1.0), count)
    np.power(CELL_RATIO, geometric, out=geometric)
    geometric *= lo
    s = np.concatenate((geometric, kink, profile.s_lower, profile.s_upper), axis=1)
    s.sort(axis=1)
    ends = _ends(tf, s)
    bound = _cell_margins(tf, ends[:, :, :-1], ends[:, :, 1:], np.array(k0_rate)[:, None])
    for j, one in enumerate(chunk):
        c = int(count[j, 0]) + 3
        cells = np.column_stack((s[j, :c], s[j, 1:c + 1], bound[j, :c]))
        yield _report(one, ends[:, j, :c + 1], cells, k0_rate[j], float(lo[j, 0]))


def _report(tf: TestFunction, ends, cells, k0_rate: float, lo: float) -> OdeMarginReport:
    """The report of ``tf`` from its cover's cells, rows (lo, hi, first
    bound), and the rows ``_ends`` gives at their edges: the short cells
    bisected, the lower tail below lo bounded."""
    n, kink, d = tf.n, tf.kink, tf.delta
    first = cells.shape[0]
    beta = (n - tf.alpha) / n
    tail = (d * (n * n * (d + 1.0) - 4.0 * (n * n - n)) * float(ends[4, 0] * ends[1, 0]),
            n * tf.f0 / (n - tf.alpha) * (d - beta) * lo ** (beta - 1.0))
    left, right = ends[:, :-1], ends[:, 1:]
    settled = []
    witness = None
    for _ in range(BISECTIONS):
        short = cells[:, 2] < -ANALYTIC_SLACK
        if not short.any() or np.count_nonzero(short) > MAX_SHORT:
            break
        settled.append(cells[~short])
        cells, left, right = cells[short], left[:, short], right[:, short]
        mid = _ends(tf, np.sqrt(left[0] * right[0]))
        sampled = _rates(tf, mid) - k0_rate
        i = int(np.argmin(sampled))
        if not sampled[i] >= -ANALYTIC_SLACK:
            witness = (float(sampled[i]), float(mid[0, i]))
            break
        left, right = np.hstack((left, mid)), np.hstack((mid, right))
        cells = np.column_stack((left[0], right[0], _cell_margins(tf, left, right, k0_rate)))
    if settled:
        cells = np.concatenate([*settled, cells])
        cells = cells[np.argsort(cells[:, 0])]
    j = int(np.argmin(cells[:, 2]))
    min_margin, argmin_cell = float(cells[j, 2]), (float(cells[j, 0]), float(cells[j, 1]))

    g_lo = sum(t - CELL_PAD * abs(t) for t in tail)
    lower_tail = g_lo - k0_rate * (1.0 + CELL_PAD) if g_lo >= 0.0 else -math.inf
    if lower_tail < min_margin:  # never nan: a nan g(lo) gives -inf
        min_margin, argmin_cell = lower_tail, (0.0, lo)
    if witness is not None:
        min_margin, argmin_cell = witness[0], (witness[1], witness[1])
    return OdeMarginReport(
        min_margin=min_margin, argmin_cell=argmin_cell, threshold=ANALYTIC_SLACK,
        passed=bool(min_margin >= -ANALYTIC_SLACK), n_bisections=cells.shape[0] - first,
        n_power_cells=int(np.count_nonzero(cells[:, 1] <= kink)), lower_tail=lower_tail,
        k0_rate=k0_rate, cells=cells)


# --- integral bound --------------------------------------------------------


@dataclass(frozen=True)
class IntegralBoundReport:
    integral: float   # integral phi^2/|phi_s| ds over (0, infinity)
    bound: float      # K0/gamma^2
    margin: float     # bound - integral, in its exact cancelled form
    passed: bool


def verify_integral_bound(tf: TestFunction) -> IntegralBoundReport:
    """integral phi^2/|phi_s| ds against K0/gamma^2, both in closed form.

    With k = xi/gamma and A = a gamma^-delta the power branch contributes
    (A k^(2-delta)/(2-delta) - b k^2 + (b^2/A) k^(2+delta)/(2+delta))/delta
    and the exponential branch e^-xi/gamma^2.  Since A k^(2-delta) =
    a xi^(2-delta)/gamma^2 and b k^delta/A = 1 - delta/xi, the margin
    K0/gamma^2 - integral cancels to (b k^2/delta)(1 - (1 - delta/xi)/(2 + delta)).
    """
    A = tf.a / tf.gamma ** tf.delta
    k = tf.kink
    d = tf.delta
    b = tf.b
    g2 = tf.gamma ** 2
    inner = (A * k ** (2.0 - d) / (2.0 - d) - b * k * k
             + b * b / A * k ** (2.0 + d) / (2.0 + d)) / d
    integral = inner + math.exp(-tf.xi) / g2
    bound = tf.K0 / g2
    margin = b * k * k / d * (1.0 - (1.0 - d / tf.xi) / (2.0 + d))
    return IntegralBoundReport(integral=integral, bound=bound, margin=margin,
                               passed=bool(integral <= bound * (1.0 + ANALYTIC_SLACK)))


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
            raise ParameterError(f"t outside [t1, t1 + T) with T = {self.blow_up_time}")
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
    """The selected (kappa, s0, gamma) and the c_sub, xi and delta they were
    selected with."""

    kappa: float
    s0: float
    gamma: float
    c_sub: float
    xi: float
    delta: float
    diagnostics: dict


def select_blowup_params(t0: float, eta: float, c0: float, c_sub: float,
                         params: SystemParams, xi: float, delta: float,
                         w_probe) -> BlowupSelection:
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
    n = params.n
    # k0 and K0 do not depend on gamma: any admissible one builds them
    tf = build_testfunction(params, xi, delta, 8.0 / (params.R - params.rho))
    k0, K0 = tf.k0, tf.K0
    kappa = k0 * eta / 8.0

    expo = 2.0 / (n - 2.0)
    s_cap = (2.0 * kappa ** (n / (n - 2.0)) / (3.0 * (n - 2.0))) ** ((n - 2.0) / 2.0)
    upper = min(s_cap * (1.0 - 1e-9), 1.0 - 1e-12)
    need = k0 * K0 / kappa

    def sinh_bound(s):
        # nan, which dominates nothing, where the bound is no double: at
        # s = 0 and where s^3 underflows against an overflowed sinh
        if s == 0.0:
            return math.nan
        with np.errstate(over="ignore", invalid="ignore"):
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
    floor_kappa = (xi / kappa) ** (n / 2.0)
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
        if gamma > GAMMA_CAP:
            which = "probe_below_s0" if (probe_s is None or probe_s >= s0) \
                else "measured_w_inequality"
            raise SelectionError(f"gamma search exceeded cap {GAMMA_CAP}", failing=which)
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
    return BlowupSelection(kappa=kappa, s0=s0, gamma=gamma, c_sub=c_sub, xi=xi, delta=delta,
                           diagnostics=diagnostics)


# --- y functional and indicators -------------------------------------------


@dataclass(frozen=True)
class YFunctionalReport:
    times: tuple
    y: tuple
    z: tuple                    # Riccati comparison values; nan past blow-up
    cap_bound: float
    cap_ok: bool
    cap_headroom: float         # 1 - max y / cap_bound
    c_gamma: float
    lower_bound_t1: float
    lower_ok: bool
    lower_bound_margin_log10: float | None  # log10(y(t1) / lower_bound_t1)
    riccati: dict               # {A, B, T} of z' = A z + B z^2, T its blow-up time
    n_compared: int             # output times in (t1, t1 + T) compared with z
    domination_ok: bool | None  # None when n_compared is 0
    first_violation_time: float | None
    tolerance: float
    labels: dict


def y_functional(traj: Trajectory, tf: TestFunction, kappa: float,
                 t1: float) -> YFunctionalReport:
    """y(t) = integral phi W ds along the trajectory, with the uniform cap
    check and its headroom 1 - max y / cap_bound, the measured lower bound at
    t1 and the decades log10(y(t1) / bound) by which y(t1) clears it (None
    when a side is <= 0), and the Riccati domination verdict on the overlap
    of horizons (a finite-epsilon trend, not a limit claim).
    y(t1) = z(t1) holds by construction, so the verdict counts only the
    output times strictly between t1 and z's blow-up time; with none of
    them it is None, not a pass."""
    if traj.times[-1] < t1 - 1e-12:
        raise ParameterError(f"trajectory horizon {traj.times[-1]} shorter than t1 = {t1}")
    s = traj.s
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
    # the difference of the logs: the ratio overflows if the bound underflows
    margin = (math.log10(y_vals[0]) - math.log10(lower)
              if y_vals[0] > 0.0 and lower > 0.0 else None)

    A = tf.k0 * tf.gamma ** (2.0 / n)
    B = tf.gamma ** 2 / (2.0 * tf.K0)
    dom_ok = True
    n_compared = 0
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
            n_compared += t > times[0]
            if dom_ok and y < z_vals[k] - tol_abs:
                dom_ok = False
                first_violation = t
    return YFunctionalReport(
        times=times, y=y_vals, z=tuple(z_vals), cap_bound=cap_bound, cap_ok=cap_ok,
        cap_headroom=1.0 - max(y_vals) / cap_bound, c_gamma=c_gamma,
        lower_bound_t1=lower, lower_ok=bool(lower_ok), lower_bound_margin_log10=margin,
        riccati={"A": A, "B": B, "T": T}, n_compared=n_compared,
        domination_ok=dom_ok if n_compared else None, first_violation_time=first_violation,
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
    sup_w_over_s_beta: dict        # beta -> {value, s, t}
    lipschitz_estimate: float
    lipschitz_location: dict       # {s, t}
    provenance: dict
    y_functional: YFunctionalReport | None = None
    verdicts: dict = field(default_factory=dict)


def indicator_series(traj: Trajectory, beta: float) -> list:
    """sup W/s^beta over the probes 0 < s <= s_max/2 at each snapshot, as
    (t, value, s) rows."""
    s = traj.s
    probe = (s > 0.0) & (s <= s[-1] / 2.0)
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
    forward-difference Lipschitz estimate."""
    betas = tuple(float(b) for b in betas)
    if any(b < 1.0 for b in betas):
        raise ParameterError("betas must be >= 1")
    sup = {}
    for beta in betas:
        # max keeps the earliest snapshot on ties
        t, value, s_at = max(indicator_series(traj, beta), key=lambda row: row[1])
        sup[beta] = {"value": value, "s": s_at, "t": t}
    s = traj.s
    probe = (s > 0.0) & (s <= s[-1] / 2.0)
    h = np.diff(s)
    probe_cell = probe[:-1]
    lip, lip_where = -math.inf, {"s": math.nan, "t": math.nan}
    for t, w in zip(traj.times, traj.snapshots):
        slopes = (w[1:] - w[:-1])[probe_cell] / h[probe_cell]
        i = int(np.argmax(slopes))
        if slopes[i] > lip:
            lip, lip_where = float(slopes[i]), {"s": float(s[:-1][probe_cell][i]), "t": t}
    verdicts = {"finite_epsilon_trend": True}
    if y_report is not None:
        verdicts.update(cap_ok=y_report.cap_ok,
                        lower_bound_ok=y_report.lower_ok,
                        riccati_domination_ok=y_report.domination_ok)
    return BlowupReport(
        epsilon=traj.epsilon, betas=betas, sup_w_over_s_beta=sup,
        lipschitz_estimate=lip, lipschitz_location=lip_where,
        provenance={"N": s.size - 1, "s_max": float(s[-1]),
                    "times": list(traj.times), "epsilon": traj.epsilon},
        y_functional=y_report, verdicts=verdicts)
