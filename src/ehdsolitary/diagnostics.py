"""Physical-field reconstruction and identity checks on a computed wave:
velocity/electric surface fields, flow-force invariance, the integral flux
identity, the subcritical speed bound, nodal monotonicity, laminar-stream
bounds, and the physical surface profile with overhang detection.

All checks are read-only over a solution snapshot.  Each takes a
WaveSolution or its SurfaceState and reads the state's fields: a caller
that runs several checks on one solution builds the state once and passes
it to each.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import WaveSolution, symmetry_error
from .spectral import _cosh_ratio, conjugate_primitive
from .system import INTERIOR_LEVELS, SurfaceState, eliminated_t2

FLOW_FORCE_PAD = 2          # zero-padding factor of the flow-force integrand
NODAL_NOISE_FACTOR = 10.0   # slope noise floor over the top-band ripple
PROP65_TOL = 1e-9           # a bound margin within this is an equality
REPORT_STATIONS = 9         # flow-force stations listed by full_report
SCAN_BLOCK_PAIRS = 2 ** 19  # segment pairs per block of the self-intersection scan


class DegenerateJacobian(ArithmeticError):
    """|grad eta|^2 fell below 1e-14 somewhere; field formulas are unusable."""


def _state_of(sol) -> SurfaceState:
    """The SurfaceState of a WaveSolution, or sol itself if it is one."""
    if isinstance(sol, SurfaceState):
        return sol
    return SurfaceState(sol.t1, sol.params, sol.grid)


def gamma_field_arrays(sol):
    """Velocity and electric components on the surface as arrays (u, v, e1, e2),
    at a WaveSolution or its SurfaceState.

    With the electric potential equal to the vertical coordinate in conformal
    variables, e1 = -eta_x/|grad eta|^2 and e2 = eta_y/|grad eta|^2.  eta_x,
    eta_y, zeta_y and |grad eta|^2 are the state's; only zeta_x = ddx(t2) is
    transformed, from the state's spectrum of t2, and not at gamma = 0,
    where t2 is identically zero.
    """
    state = _state_of(sol)
    p, g, t1 = state.params, state.grid, state.t1
    gradsq = state.gradsq
    if np.min(gradsq) < 1e-14:
        raise DegenerateJacobian(
            f"|grad eta|^2 reaches {np.min(gradsq):.3e} on the surface")
    eta_x, eta_y = state.w1x, 1.0 + state.w1y
    zeta_x = (np.fft.irfft(state.t2_spectrum * g.ddx_symbol, n=g.n_points)
              if p.gamma != 0.0 else 0.0)
    zeta_y = (1.0 - p.gamma) + state.w2y
    u = (eta_x * zeta_x + eta_y * zeta_y) / gradsq + p.gamma * (1.0 + t1)
    v = (eta_x * zeta_y - eta_y * zeta_x) / gradsq
    return u, v, -eta_x / gradsq, eta_y / gradsq


# --- flow force ---------------------------------------------------------------

def _flow_force_spectra(sol, pad: int):
    """The DFT of the flow-force integrand on a pad-times zero-padded grid of
    the same box, n = pad N samples: the rfft of G on the bottom, where G is
    real, and the full fft of conj(G) on the surface.

    The integrand is Re G, G = (F'^2 + eps1) / (2 Z'), with Z' = eta_y +
    i eta_x and F' = zeta_y + i zeta_x analytic in x + i y; the padding keeps
    its aliasing off the stations."""
    p, g, t1 = sol.params, sol.grid, sol.t1
    n, k = pad * g.n_points, g.wavenumbers
    # the surface traces of eta and zeta, exactly interpolated: irfft pads
    # with zeros, and g's Nyquist mode splits between +k and -k.  At
    # gamma = 0, zeta = 1 - gamma + t2 is exactly 1, so zeta_y = 1 and
    # zeta_x = 0 on both lines, and eta alone is transformed.
    traces = [1.0 + t1]
    if p.gamma != 0.0:
        traces.append(1.0 - p.gamma + eliminated_t2(t1, p))
    c = pad * np.fft.rfft(traces, axis=-1)
    c[:, -1] *= 0.5

    # bottom: d/dy is k / sinh k and d/dx is 0, so G is real there
    eta_y, *zeta_y = np.fft.irfft(c * _cosh_ratio(k, 0.0), n=n, axis=-1)
    zeta_y = zeta_y[0] if zeta_y else 1.0
    bottom = np.fft.rfft((zeta_y * zeta_y + p.eps1) / (2.0 * eta_y))
    del eta_y, zeta_y                       # one line's fields at a time
    # surface: conj(Z') = eta_y - i eta_x and conj(F') through dtn and i k,
    # which keeps g's Nyquist mode: it is interior to the padded grid
    z, *f = (np.fft.irfft(row * g.dtn_symbol, n=n) - 1j * np.fft.irfft(row * (1j * k), n=n)
             for row in c)
    f = f[0] if f else 1.0
    return bottom, np.fft.fft((f * f + p.eps1) / (2.0 * z))


def _flow_force_stations(sol, h: np.ndarray, pad: int) -> np.ndarray:
    """Flow force at every station from h, mode k of the integrand on the
    bottom plus mode k of its conjugate on the surface (k = 0 .. pad N / 2),
    on the pad-times grid; h is overwritten.

    Mode k of G varies as exp(-k y): integrated over the strip height, it is
    mode k of G on the bottom (k > 0) or the surface (k < 0) times
    (1 - exp(-|k|)) / |k|, in (0, 1].  As G is real on the bottom, rfft mode
    k of the integral of Re G is that factor times half of h[k].  The
    stations are every pad-th point of the fine grid, so their values are
    the N-point inverse DFT of the integral's spectrum summed over k mod N,
    over pad."""
    p, g = sol.params, sol.grid
    n = g.n_points
    kf = (np.pi / g.half_length) * np.arange(1, len(h))
    h[0] *= 0.5
    h[1:] *= -0.5 * np.expm1(-kf) / kf
    h[-1] = 0.0
    spectrum = np.concatenate([h, h[-2:0:-1].conj()])     # all pad N modes
    total = np.fft.irfft(spectrum.reshape(pad, n).sum(axis=0)[:n // 2 + 1], n=n) / pad

    eta_surface = 1.0 + sol.t1
    boundary = (p.gamma ** 2 / 6.0 * eta_surface ** 3
                + 0.5 * p.alpha * eta_surface ** 2
                - 0.5 * (2.0 * p.alpha + 1.0 + p.eps1) * eta_surface)
    return total - boundary


def flow_force_profile(sol) -> np.ndarray:
    """Flow force at all stations, at a WaveSolution or its SurfaceState
    (only t1, params and grid are read), its integrand evaluated once, on a
    2 FLOW_FORCE_PAD-times zero-padded grid.

    The result is that of the FLOW_FORCE_PAD-times grid, whose samples are
    every second sample of the finer one: their DFT is the fold
    (H[k] + H[k + n/2]) / 2 of the finer DFT H, and on the bottom, where the
    integrand is real, H[k + n/2] = conj(H[n/2 - k]).  The result of the
    finer grid is formed too, and a gap above 1e-8 between the two warns
    that the integrand is not resolved."""
    bottom, surface = _flow_force_spectra(sol, 2 * FLOW_FORCE_PAD)
    half = len(bottom) - 1                  # n/2 on the finer grid
    m = half // 2 + 1                       # rfft length on the coarser one
    folded = 0.5 * (bottom[:m] + bottom[half:half - m:-1].conj()
                    + surface[:m] + surface[half:half + m])
    s = _flow_force_stations(sol, folded, FLOW_FORCE_PAD)
    bottom += surface[:len(bottom)]
    fine = _flow_force_stations(sol, bottom, 2 * FLOW_FORCE_PAD)
    gap = float(np.max(np.abs(fine - s)))
    if gap > 1e-8:
        warnings.warn(
            f"flow-force integrand not resolved: doubling the padding "
            f"moved the result by {gap:.2e}", RuntimeWarning, stacklevel=2)
    return s


# --- integral flux identity ---------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    rel_gap: float
    advective: float            # integral of w1 * w1y over the surface
    advective_positive: bool


def flux_identity_check(sol) -> IdentityReport:
    """Integral identity balancing the subcritical excess against quadratic
    and cubic profile moments, at a WaveSolution or its SurfaceState:

        (1 - gamma + eps1 - alpha) I[w1]
            = alpha I[w1 w1y] + (alpha + gamma^2)/2 I[w1^2] + gamma^2/6 I[w1^3]

    up to a remainder controlled by the truncation tail.  The advective
    moment I[w1 w1y] must be positive for nontrivial waves.
    """
    state = _state_of(sol)
    p, g, t1 = state.params, state.grid, state.t1
    h = g.spacing
    integral = lambda f: float(h * np.sum(f))
    lhs = (1.0 - p.gamma + p.eps1 - p.alpha) * integral(t1)
    advective = integral(t1 * state.w1y)
    rhs = (p.alpha * advective
           + 0.5 * (p.alpha + p.gamma ** 2) * integral(t1 * t1)
           + p.gamma ** 2 / 6.0 * integral(t1 ** 3))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return IdentityReport(
        lhs=lhs, rhs=rhs, rel_gap=abs(lhs - rhs) / scale,
        advective=advective, advective_positive=advective > 0.0)


# --- nodal monotonicity ---------------------------------------------------------

@dataclass(frozen=True)
class NodalReport:
    passed: bool
    x_tail: float
    violations: list = field(default_factory=list)   # (height, x) pairs


def nodal_check(sol, tail_floor: float = 1e-8) -> NodalReport:
    """Strict decrease of the surface unknown on 0 < x < x_tail, on the
    surface and at the INTERIOR_LEVELS heights, where x_tail bounds the region
    with |t1| above tail_floor, at a WaveSolution or its SurfaceState (the
    slopes are its level_fields).  Report-only; violations are listed.

    Strictness is measured against the numerical noise in the slope: the top
    20% of the wavenumber band carries the spectral-truncation ripple, so
    NODAL_NOISE_FACTOR times the amplitude of that band's contribution to the
    slope separates genuine sign violations from discretization artifacts.
    On well-resolved waves that floor sits at rounding level, i.e. the check
    is the strict sign test.
    """
    state = _state_of(sol)
    g, t1 = state.grid, state.t1
    x = g.x
    above = (x > 0) & (np.abs(t1) > tail_floor)
    if not np.any(above):
        return NodalReport(passed=True, x_tail=0.0, violations=[])
    x_tail = float(np.max(x[above]))
    window = (x > 0) & (x < x_tail)

    heights = (1.0,) + INTERIOR_LEVELS
    slopes = state.level_fields[1]
    t1x = slopes[0]
    coeffs = np.fft.rfft(t1x)
    coeffs[: int(0.8 * len(coeffs))] = 0.0
    ripple = float(np.max(np.abs(np.fft.irfft(coeffs, g.n_points))))
    noise = NODAL_NOISE_FACTOR * max(
        ripple, np.finfo(float).eps * float(np.max(np.abs(t1x))))
    violations = []
    for y, slope in zip(heights, slopes):
        bad = window & (slope >= noise)
        violations.extend((y, float(xx)) for xx in x[bad])
    return NodalReport(passed=not violations, x_tail=x_tail, violations=violations)


# --- physical profile -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProfileReport:
    X: np.ndarray               # physical surface (X, Y), one point per station
    Y: np.ndarray
    overhang: bool
    min_xi_prime: float
    self_intersecting: bool


def _segments_intersect(p1, p2, q1, q2) -> np.ndarray:
    """Vectorized proper-intersection test of segment batches."""
    def orient(a, b, c):
        return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
                - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))
    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return (d1 * d2 < 0) & (d3 * d4 < 0)


def _self_intersection_scan(X: np.ndarray, Y: np.ndarray) -> bool:
    """Whether two non-adjacent segments of the polyline cross properly.

    Each pair is tested once, in blocks of rows: a block of consecutive
    segments against the later segments whose bounding boxes meet the
    block's (segments that cross have overlapping boxes), at most
    SCAN_BLOCK_PAIRS pairs per block, so memory is O(n) for n segments.
    """
    pts = np.column_stack([X, Y])
    p1, p2 = pts[:-1], pts[1:]
    box_lo, box_hi = np.minimum(p1, p2), np.maximum(p1, p2)
    n = len(p1)
    rows = max(1, SCAN_BLOCK_PAIRS // max(n, 1))
    for i0 in range(0, n, rows):
        i = np.arange(i0, min(i0 + rows, n))
        later = slice(i0 + 2, None)
        meets = np.all((box_lo[later] <= box_hi[i].max(axis=0))
                       & (box_hi[later] >= box_lo[i].min(axis=0)), axis=1)
        j = i0 + 2 + np.flatnonzero(meets)
        hits = _segments_intersect(p1[i, None], p2[i, None], p1[None, j], p2[None, j])
        if np.any(hits & (j > i[:, None] + 1)):
            return True
    return False


def physical_profile(sol) -> ProfileReport:
    """Physical free surface (X(x), Y(x)) recovered from the conformal trace,
    at a WaveSolution or its SurfaceState.

    X integrates X_x = eta_y: the mean m of eta_y - 1 (the wave's mass over
    2L) stretches the box coordinate, and the conjugate primitive adds the
    zero-mean rest, so the profile spans 2L - h plus the mass.  Y is the
    surface elevation.  The overhang flag is set when the horizontal
    stretch xi_x = eta_y becomes negative anywhere; self-intersection of an
    overhanging profile is reported, not rejected.
    """
    state = _state_of(sol)
    g, t1 = state.grid, state.t1
    eta_y = 1.0 + state.w1y
    m = float(np.mean(eta_y - 1.0))
    X = (1.0 + m) * g.x + conjugate_primitive(eta_y - 1.0 - m, g)
    Y = 1.0 + t1
    min_xi = float(np.min(eta_y))
    overhang = min_xi < 0.0
    selfx = _self_intersection_scan(X, Y) if overhang else False
    return ProfileReport(X=X, Y=Y, overhang=overhang, min_xi_prime=min_xi,
                         self_intersecting=selfx)


# --- laminar-stream bounds -------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    name: str
    status: str                 # "pass" | "fail" | "degenerate-equality"
    worst_margin: float         # signed distance to the bound (>= 0 passes)


@dataclass(frozen=True, eq=False)
class BoundsReport:
    checks: list

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)


def _bound_status(worst: float, tol: float) -> str:
    if worst > tol:
        return "pass"
    return "degenerate-equality" if worst >= -tol else "fail"


def prop65_check(sol) -> BoundsReport:
    """Pointwise bounds on the vertical derivatives of the stream-like and
    potential-like harmonic quantities on the surface, at a WaveSolution or
    its SurfaceState.

    The potential derivative equals 1 identically in conformal variables, and
    the stream bound collapses to an equality for zero vorticity; both are
    reported as degenerate-equality rather than failure.
    """
    state = _state_of(sol)
    p = state.params
    # potential derivative: exactly 1 by construction
    checks = [BoundCheck(name="theta_y vs 1", status="degenerate-equality",
                         worst_margin=0.0)]

    # psi_y = zeta_y + gamma eta eta_y is the state's stream factor
    psi_y = state.stream

    if p.gamma <= 0:
        bound = 1.0 - 0.5 * p.gamma
        worst = float(np.min(bound - psi_y))
        if p.gamma == 0 and np.max(np.abs(psi_y - 1.0)) <= PROP65_TOL:
            status = "degenerate-equality"
        else:
            status = _bound_status(worst, PROP65_TOL)
        checks.append(BoundCheck(name="psi_y upper (gamma<=0)", status=status,
                                 worst_margin=worst))

    if p.gamma >= 0:
        _, gx, gy = state.level_fields
        grad_inf = float(np.min(gx ** 2 + (1.0 + gy) ** 2))
        bound = min(2.0 - p.gamma + 2.0 * p.eps1, p.gamma * grad_inf)
        worst = float(np.min(psi_y - bound))
        checks.append(BoundCheck(name="psi_y lower (gamma>=0)",
                                 status=_bound_status(worst, PROP65_TOL),
                                 worst_margin=worst))

    return BoundsReport(checks=checks)


# --- combined report --------------------------------------------------------------

def full_report(sol: WaveSolution) -> dict:
    """Every check on one solution, as a JSON-friendly nested dict.  Used by
    the diagnose command; hard invariants carry an 'ok' flag.  The
    solution's SurfaceState is built once and every check is called with
    it, so every trace is transformed forward once."""
    p, g = sol.params, sol.grid
    state = SurfaceState(sol.t1, p, g)
    rnorm = float(np.max(np.abs(state.residual)))
    sym = symmetry_error(sol.t1)
    lam = state.lambda_min
    m1, m2, m3 = state.monitors
    nontrivial = float(np.max(np.abs(sol.t1))) > 1e-12

    idx = np.linspace(0, g.n_points - 1, REPORT_STATIONS).astype(int)
    stations = g.x[idx]
    s_vals = flow_force_profile(state)
    s_at_stations = s_vals[idx]
    s_ref = float(s_vals[g.n_points // 2])        # station at the crest x = 0
    spread = float(np.max(np.abs(s_at_stations - s_ref)) / max(abs(s_ref), 1e-300))

    flux = flux_identity_check(state)
    flux_budget = max(1e-4, 10.0 * sol.tail)
    # tail floor 10 x the branch's default tail_tol
    nodal = nodal_check(state, 1e-8)
    bounds = prop65_check(state)
    profile = physical_profile(state)
    u, v, e1, e2 = gamma_field_arrays(state)
    eta_x, eta_y = state.w1x, 1.0 + state.w1y
    # the Bernoulli condition through the field formulas, a redundancy check
    # on the solver residual
    bern = float(np.max(np.abs(u * u + v * v + p.eps1 * (e1 * e1 + e2 * e2)
                               + 2.0 * p.alpha * sol.t1 - (1.0 + p.eps1))))
    # the surface orthogonality identities
    kin = float(max(np.max(np.abs(u * eta_x - v * eta_y)),
                    np.max(np.abs(e1 * eta_y + e2 * eta_x))))
    # far-field decay of the fields over the outer 10% of the surface, of the
    # order of the decay tail
    outer = np.abs(g.x) >= 0.9 * g.half_length
    asym = float(np.max((np.abs(u - 1.0) + np.abs(v) + np.abs(e1)
                         + np.abs(e2 - 1.0))[outer]))
    asym_budget = max(10.0 * sol.tail, 1e-9)

    return {
        "residual_norm": rnorm,
        "residual_ok": rnorm <= 1e-8,
        "symmetry_error": sym,
        "symmetry_ok": sym <= 1e-10,
        "lambda_min": lam,
        "lambda_ok": lam > 0,
        "froude_bound_ok": (not nontrivial) or p.alpha < p.alpha_cr,
        "monitors": {"m1": m1, "m2": m2, "m3": m3, "froude": p.froude},
        "bernoulli_fields": bern,
        "bernoulli_ok": bern <= 1e-8,
        "kinematic": kin,
        "kinematic_ok": kin <= 1e-9,
        "flow_force": {
            "stations": [float(s) for s in stations],
            "values": [float(v) for v in s_at_stations],
            "relative_spread": spread,
            "ok": spread < 1e-6,
        },
        "flux_identity": {
            "lhs": flux.lhs, "rhs": flux.rhs, "rel_gap": flux.rel_gap,
            "budget": flux_budget, "advective": flux.advective,
            "advective_positive": flux.advective_positive,
            "ok": (not nontrivial) or (flux.rel_gap < flux_budget
                                       and flux.advective_positive),
        },
        "asymptotic_fields": {"deviation": asym, "budget": asym_budget,
                              "ok": asym <= asym_budget},
        "nodal": {"passed": nodal.passed, "x_tail": nodal.x_tail,
                  "violation_count": len(nodal.violations)},
        "stream_potential_bounds": [
            {"name": c.name, "status": c.status, "worst_margin": c.worst_margin}
            for c in bounds.checks],
        "profile": {"overhang": profile.overhang,
                    "min_xi_prime": profile.min_xi_prime,
                    "self_intersecting": profile.self_intersecting},
        "tail": sol.tail,
    }


HARD_KEYS = ("residual_ok", "symmetry_ok", "lambda_ok", "froude_bound_ok",
             "bernoulli_ok", "kinematic_ok")


def hard_violations(report: dict) -> list:
    """Names of the hard invariants a report violates."""
    bad = [k for k in HARD_KEYS if not report[k]]
    if not report["flow_force"]["ok"]:
        bad.append("flow_force_constancy")
    if not report["flux_identity"]["ok"]:
        bad.append("flux_identity")
    if not report["asymptotic_fields"]["ok"]:
        bad.append("asymptotic_fields")
    return bad
