"""Physical-field reconstruction and identity checks on a computed wave:
velocity/electric surface fields, flow-force invariance, the integral flux
identity, the subcritical speed bound, nodal monotonicity, laminar-stream
bounds, and the physical surface profile with overhang detection.

All checks are read-only over a solution snapshot.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import Params, WaveSolution, symmetry_error
from .spectral import conjugate_primitive, ddx, dtn, eval_interior, eval_interior_dy
from .system import eliminated_t2, lambda_min, residual, surface_gradient_bounds

INTERIOR_LEVELS = (0.25, 0.5, 0.75)


class DegenerateJacobian(ArithmeticError):
    """|grad eta|^2 fell below 1e-14 somewhere; field formulas are unusable."""


def _surface_arrays(sol: WaveSolution):
    """(eta, eta_x, eta_y, zeta_x, zeta_y) on the surface."""
    p, g, t1 = sol.params, sol.grid, sol.t1
    t2 = eliminated_t2(t1, p)
    eta = 1.0 + t1
    eta_x = ddx(t1, g)
    eta_y = 1.0 + dtn(t1, g)
    zeta_x = ddx(t2, g)
    zeta_y = (1.0 - p.gamma) + dtn(t2, g)
    return eta, eta_x, eta_y, zeta_x, zeta_y


def gamma_field_arrays(sol: WaveSolution):
    """Velocity and electric components on the surface as arrays (u, v, e1, e2).

    With the electric potential equal to the vertical coordinate in conformal
    variables, e1 = -eta_x/|grad eta|^2 and e2 = eta_y/|grad eta|^2.
    """
    p = sol.params
    eta, eta_x, eta_y, zeta_x, zeta_y = _surface_arrays(sol)
    gradsq = eta_x ** 2 + eta_y ** 2
    if np.min(gradsq) < 1e-14:
        raise DegenerateJacobian(
            f"|grad eta|^2 reaches {np.min(gradsq):.3e} on the surface")
    u = (eta_x * zeta_x + eta_y * zeta_y) / gradsq + p.gamma * eta
    v = (eta_x * zeta_y - eta_y * zeta_x) / gradsq
    e1 = -eta_x / gradsq
    e2 = eta_y / gradsq
    return u, v, e1, e2


def bernoulli_field_residual(sol: WaveSolution) -> float:
    """Sup-norm of u^2 + v^2 + eps1(e1^2 + e2^2) + 2 alpha (eta - 1) - (1 + eps1)
    on the surface, recomputed through the field formulas as a redundancy
    check on the solver residual."""
    p = sol.params
    u, v, e1, e2 = gamma_field_arrays(sol)
    res = (u * u + v * v + p.eps1 * (e1 * e1 + e2 * e2)
           + 2.0 * p.alpha * sol.t1 - (1.0 + p.eps1))
    return float(np.max(np.abs(res)))


def kinematic_residual(sol: WaveSolution) -> float:
    """Sup-norm of the two surface orthogonality identities
    u eta_x - v eta_y and e1 eta_y + e2 eta_x."""
    u, v, e1, e2 = gamma_field_arrays(sol)
    _, eta_x, eta_y, _, _ = _surface_arrays(sol)
    r1 = u * eta_x - v * eta_y
    r2 = e1 * eta_y + e2 * eta_x
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


def asymptotic_field_deviation(sol: WaveSolution) -> float:
    """Max of |u-1| + |v| + |e1| + |e2-1| over the outer 10% of the surface;
    should be of the order of the decay tail."""
    u, v, e1, e2 = gamma_field_arrays(sol)
    outer = np.abs(sol.grid.x) >= 0.9 * sol.grid.half_length
    dev = np.abs(u - 1.0) + np.abs(v) + np.abs(e1) + np.abs(e2 - 1.0)
    return float(np.max(dev[outer]))


# --- flow force ---------------------------------------------------------------

def _flow_force_all_stations(sol: WaveSolution, n_nodes: int) -> np.ndarray:
    """Flow force evaluated at every collocation station by Gauss-Legendre
    quadrature over the strip height."""
    p, g, t1 = sol.params, sol.grid, sol.t1
    t2 = eliminated_t2(t1, p)
    t1x = ddx(t1, g)
    t2x = ddx(t2, g)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    ys = 0.5 * (nodes + 1.0)            # map to (0, 1)
    ws = 0.5 * weights

    total = np.zeros(g.n_points)
    for y, w in zip(ys, ws):
        eta_x = eval_interior(t1x, g, y)
        eta_y = 1.0 + eval_interior_dy(t1, g, y)
        zeta_x = eval_interior(t2x, g, y)
        zeta_y = (1.0 - p.gamma) + eval_interior_dy(t2, g, y)
        gradsq = eta_x ** 2 + eta_y ** 2
        hydro = (eta_y * (zeta_y ** 2 - zeta_x ** 2)
                 + 2.0 * eta_x * zeta_x * zeta_y) / gradsq
        electric = eta_y / gradsq       # potential is exactly the height coordinate
        total += w * (0.5 * hydro + 0.5 * p.eps1 * electric)

    eta_surface = 1.0 + t1
    boundary = (p.gamma ** 2 / 6.0 * eta_surface ** 3
                + 0.5 * p.alpha * eta_surface ** 2
                - 0.5 * (2.0 * p.alpha + 1.0 + p.eps1) * eta_surface)
    return total - boundary


def flow_force_profile(sol: WaveSolution, n_nodes: int = 32,
                       check: bool = True) -> np.ndarray:
    """Flow force at all stations; optionally verifies quadrature convergence
    by node doubling and warns when the result moves by more than 1e-8."""
    s = _flow_force_all_stations(sol, n_nodes)
    if check:
        s2 = _flow_force_all_stations(sol, 2 * n_nodes)
        gap = float(np.max(np.abs(s2 - s)))
        if gap > 1e-8:
            warnings.warn(
                f"flow-force quadrature not converged: node doubling moved "
                f"the result by {gap:.2e}", RuntimeWarning, stacklevel=2)
    return s


def flow_force(sol: WaveSolution, x: float, n_nodes: int = 32,
               check: bool = True) -> float:
    """Flow force at the station nearest to x (x must lie inside the box)."""
    g = sol.grid
    if not -g.half_length <= x <= g.half_length:
        raise ValueError(f"station x={x} outside the computational box")
    j = int(np.argmin(np.abs(g.x - x)))
    return float(flow_force_profile(sol, n_nodes, check=check)[j])


def trivial_flow_force(p: Params) -> float:
    """Closed-form flow force of the uniform stream:
    gamma^2/3 - gamma + alpha/2 + 1 + eps1."""
    return p.gamma ** 2 / 3.0 - p.gamma + 0.5 * p.alpha + 1.0 + p.eps1


# --- integral flux identity ---------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    rel_gap: float
    tail: float                 # truncation budget for the o(1) remainder
    advective: float            # integral of w1 * w1y over the surface
    advective_positive: bool


def flux_identity_check(sol: WaveSolution) -> IdentityReport:
    """Integral identity balancing the subcritical excess against quadratic
    and cubic profile moments:

        (1 - gamma + eps1 - alpha) I[w1]
            = alpha I[w1 w1y] + (alpha + gamma^2)/2 I[w1^2] + gamma^2/6 I[w1^3]

    up to a remainder controlled by the truncation tail.  The advective
    moment I[w1 w1y] must be positive for nontrivial waves.
    """
    p, g, t1 = sol.params, sol.grid, sol.t1
    w1y = dtn(t1, g)
    h = g.spacing
    integral = lambda f: float(h * np.sum(f))
    lhs = (1.0 - p.gamma + p.eps1 - p.alpha) * integral(t1)
    advective = integral(t1 * w1y)
    rhs = (p.alpha * advective
           + 0.5 * (p.alpha + p.gamma ** 2) * integral(t1 * t1)
           + p.gamma ** 2 / 6.0 * integral(t1 ** 3))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return IdentityReport(
        lhs=lhs, rhs=rhs, rel_gap=abs(lhs - rhs) / scale, tail=sol.tail,
        advective=advective, advective_positive=advective > 0.0)


# --- nodal monotonicity ---------------------------------------------------------

@dataclass(frozen=True)
class NodalReport:
    passed: bool
    x_tail: float
    violations: list = field(default_factory=list)   # (height, x) pairs
    noise_floor: float = 0.0


def nodal_check(sol: WaveSolution, tail_floor: float = 1e-8,
                levels=INTERIOR_LEVELS, noise_factor: float = 10.0) -> NodalReport:
    """Strict decrease of the surface unknown on 0 < x < x_tail, on the
    surface and at the given interior heights, where x_tail bounds the region
    with |t1| above tail_floor.  Report-only; violations are listed.

    Strictness is measured against the numerical noise in the slope: the top
    20% of the wavenumber band carries the spectral-truncation ripple, so
    noise_factor times the amplitude of that band's contribution to the slope
    separates genuine sign violations from discretization artifacts.  On
    well-resolved waves that floor sits at rounding level, i.e. the check is
    the strict sign test.
    """
    g, t1 = sol.grid, sol.t1
    x = g.x
    above = (x > 0) & (np.abs(t1) > tail_floor)
    if not np.any(above):
        return NodalReport(passed=True, x_tail=0.0, violations=[])
    x_tail = float(np.max(x[above]))
    window = (x > 0) & (x < x_tail)

    t1x = ddx(t1, g)
    coeffs = np.fft.rfft(t1x)
    coeffs[: int(0.8 * len(coeffs))] = 0.0
    ripple = float(np.max(np.abs(np.fft.irfft(coeffs, g.n_points))))
    noise = noise_factor * max(ripple,
                               np.finfo(float).eps * float(np.max(np.abs(t1x))))
    violations = []
    for y in (1.0,) + tuple(levels):
        slope = t1x if y == 1.0 else eval_interior(t1x, g, y)
        bad = window & (slope >= noise)
        violations.extend((float(y), float(xx)) for xx in x[bad])
    return NodalReport(passed=not violations, x_tail=x_tail,
                       violations=violations, noise_floor=noise)


# --- physical profile -----------------------------------------------------------

@dataclass(frozen=True)
class ProfilePoint:
    X: float
    Y: float
    xi_prime: float


@dataclass(frozen=True, eq=False)
class ProfileReport:
    points: list
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
    """Segment sweep over the polyline; adjacent segments are excluded."""
    pts = np.column_stack([X, Y])
    n = len(pts) - 1
    if n > 4000:
        # restrict to the non-graph region plus margin; a single-valued graph
        # cannot self-intersect
        keep = np.nonzero(np.diff(X) < 0)[0]
        if keep.size == 0:
            return False
        lo = max(int(keep.min()) - 200, 0)
        hi = min(int(keep.max()) + 200, n)
        pts = pts[lo:hi + 1]
        n = len(pts) - 1
    a1 = pts[:-1][:, None, :]
    a2 = pts[1:][:, None, :]
    b1 = pts[:-1][None, :, :]
    b2 = pts[1:][None, :, :]
    hits = _segments_intersect(a1, a2, b1, b2)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    hits &= np.abs(i - j) > 1
    return bool(np.any(hits))


def physical_profile(sol: WaveSolution) -> ProfileReport:
    """Physical free surface (X(x), Y(x)) recovered from the conformal trace.

    X is the box coordinate plus the conjugate primitive of eta_y - 1; Y is
    the surface elevation.  The overhang flag is set when the horizontal
    stretch xi_x = eta_y becomes negative anywhere; self-intersection of an
    overhanging profile is reported, not rejected.
    """
    g, t1 = sol.grid, sol.t1
    eta_y = 1.0 + dtn(t1, g)
    X = g.x + conjugate_primitive(eta_y - 1.0, g)
    Y = 1.0 + t1
    min_xi = float(np.min(eta_y))
    overhang = min_xi < 0.0
    selfx = _self_intersection_scan(X, Y) if overhang else False
    points = [ProfilePoint(X=float(X[j]), Y=float(Y[j]), xi_prime=float(eta_y[j]))
              for j in range(g.n_points)]
    return ProfileReport(points=points, overhang=overhang,
                         min_xi_prime=min_xi, self_intersecting=selfx)


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


def prop65_check(sol: WaveSolution, tol: float = 1e-9) -> BoundsReport:
    """Pointwise bounds on the vertical derivatives of the stream-like and
    potential-like harmonic quantities on the surface.

    The potential derivative equals 1 identically in conformal variables, and
    the stream bound collapses to an equality for zero vorticity; both are
    reported as degenerate-equality rather than failure.
    """
    p, g, t1 = sol.params, sol.grid, sol.t1
    checks = []

    # potential derivative: exactly 1 by construction
    checks.append(BoundCheck(name="theta_y vs 1", status="degenerate-equality",
                             worst_margin=0.0))

    t2 = eliminated_t2(t1, p)
    eta = 1.0 + t1
    eta_y = 1.0 + dtn(t1, g)
    zeta_y = (1.0 - p.gamma) + dtn(t2, g)
    psi_y = zeta_y + p.gamma * eta * eta_y

    if p.gamma <= 0:
        bound = 1.0 - 0.5 * p.gamma
        worst = float(np.min(bound - psi_y))
        if p.gamma == 0 and np.max(np.abs(psi_y - 1.0)) <= max(tol, 1e-12):
            status = "degenerate-equality"
        elif worst > tol:
            status = "pass"
        elif worst >= -tol:
            status = "degenerate-equality"
        else:
            status = "fail"
        checks.append(BoundCheck(name="psi_y upper (gamma<=0)", status=status,
                                 worst_margin=worst))

    if p.gamma >= 0:
        grad_inf = np.inf
        t1x = ddx(t1, g)
        for y in (1.0,) + tuple(INTERIOR_LEVELS):
            if y == 1.0:
                gx, gy = t1x, eta_y
            else:
                gx = eval_interior(t1x, g, y)
                gy = 1.0 + eval_interior_dy(t1, g, y)
            grad_inf = min(grad_inf, float(np.min(gx ** 2 + gy ** 2)))
        bound = min(2.0 - p.gamma + 2.0 * p.eps1, p.gamma * grad_inf)
        worst = float(np.min(psi_y - bound))
        if worst > tol:
            status = "pass"
        elif worst >= -tol:
            status = "degenerate-equality"
        else:
            status = "fail"
        checks.append(BoundCheck(name="psi_y lower (gamma>=0)", status=status,
                                 worst_margin=worst))

    return BoundsReport(checks=checks)


# --- combined report --------------------------------------------------------------

def full_report(sol: WaveSolution, n_stations: int = 9,
                tail_tol: float = 1e-9) -> dict:
    """Every check on one solution, as a JSON-friendly nested dict.  Used by
    the diagnose command; hard invariants carry an 'ok' flag."""
    p, g = sol.params, sol.grid
    r = residual(sol.t1, p, g)
    rnorm = float(np.max(np.abs(r)))
    sym = symmetry_error(sol.t1)
    lam = lambda_min(sol.t1, p, g)
    m1, m2, m3 = surface_gradient_bounds(sol.t1, p, g)
    nontrivial = float(np.max(np.abs(sol.t1))) > 1e-12

    idx = np.linspace(0, g.n_points - 1, n_stations).astype(int)
    stations = g.x[idx]
    s_vals = flow_force_profile(sol, check=True)
    s_at_stations = s_vals[idx]
    s_ref = float(s_vals[g.n_points // 2])        # station at the crest x = 0
    spread = float(np.max(np.abs(s_at_stations - s_ref)) / max(abs(s_ref), 1e-300))

    flux = flux_identity_check(sol)
    flux_budget = max(1e-4, 10.0 * sol.tail)
    nodal = nodal_check(sol, tail_floor=10.0 * tail_tol)
    bounds = prop65_check(sol)
    profile = physical_profile(sol)
    bern = bernoulli_field_residual(sol)
    kin = kinematic_residual(sol)
    asym = asymptotic_field_deviation(sol)
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
