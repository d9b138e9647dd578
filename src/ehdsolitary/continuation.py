"""Branch construction: asymptotic small-amplitude initializer, parameter
stepping in the distance to the critical speed, pseudo-arclength stepping at
larger amplitude, and the limit monitors as stop conditions.

The periodic box is adapted on the fly: it is widened (L and N doubled,
spacing kept) whenever the measured tail exceeds tolerance, refined (N
doubled at fixed L) when the cosine spectrum carries energy near the Nyquist
band, and conservatively halved when the profile has become much narrower
than the box.  All three regrid operations are exact on the trigonometric
interpolant of an even trace.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
# unused here: bench/spans.py rebinds continuation.lu_factor, so it must resolve
from scipy.linalg import lu_factor  # noqa: F401

from .diagnostics import nodal_check
from .model import (
    BaseParams,
    BranchPoint,
    Grid,
    Params,
    ValidationError,
    WaveSolution,
    make_grid,
)
from .newton import NewtonConfig, NewtonError, newton_solve
from .spectral import cosine_coefficients, values_from_cosine
from .system import lambda_min, surface_gradient_bounds

STOP_REASONS = (
    "M1_VANISHING", "M2_VANISHING", "M3_BLOWUP", "FROUDE_BLOWUP",
    "STEP_FAILURE", "BUDGET",
)

MONITOR_TRIGGERS = ("M1_VANISHING", "M2_VANISHING", "M3_BLOWUP", "FROUDE_BLOWUP")


class GridTooNarrow(ValidationError):
    """The box cannot hold the requested decaying profile."""

    def __init__(self, required_half_length: float):
        self.required_half_length = required_half_length
        super().__init__(
            "half_length",
            f"grid too narrow; the initializer needs half-length >= "
            f"{required_half_length:.1f}")


def small_amplitude_coefficients(p0: BaseParams):
    """(crest prefactor over eps, decay rate over sqrt(eps)) of the localized
    small-amplitude family.

    The long-wave reduction of the surface equation gives
        a'' = (3 eps / (1 + eps1)) a
              - (3/2) (3 - 3 gamma + gamma^2 + 3 eps1)/(1 + eps1) a^2,
    so the homoclinic profile is
        a(x) = (3 eps / (3 - 3 gamma + gamma^2 + 3 eps1))
               * sech^2( sqrt(3 eps / (1 + eps1)) x / 2 ).
    For eps1 = 0 this reduces to the familiar irrotational-style expansion
    with prefactor 3/(3 - 3 gamma + gamma^2) and rate sqrt(3 eps).
    (The solver converges to this profile at second order in eps; see the
    acceptance suite for the measured orders.)
    """
    denom = 3.0 - 3.0 * p0.gamma + p0.gamma ** 2 + 3.0 * p0.eps1
    prefactor = 3.0 / denom
    rate = np.sqrt(3.0 / (1.0 + p0.eps1))
    return prefactor, rate


def initializer_decay(eps: float, p0: BaseParams):
    """(sech^2 decay rate, least box half-length with the profile < 1e-10 at
    the boundary) of the small-amplitude initializer at eps."""
    rate = 0.5 * small_amplitude_coefficients(p0)[1] * np.sqrt(eps)
    # sech^2(rate * L) < 1e-10  <=>  L > arccosh(1e5) / rate
    return rate, float(np.arccosh(1e5) / rate)


def init_small(eps: float, p0: BaseParams, g: Grid):
    """Small-amplitude initializer and its parameters.

    Returns the localized sech^2 profile of the small-amplitude family (see
    small_amplitude_coefficients) together with Params at
    alpha = alpha_cr - eps.  Requires the box wide enough that sech^2 at the
    boundary is below 1e-10.
    """
    if not 0.0 < eps <= 0.1:
        raise ValidationError("eps", "initializer regime is 0 < eps <= 0.1")
    alpha = p0.alpha_cr - eps
    if alpha <= 0:
        raise ValidationError("eps", f"alpha = alpha_cr - eps = {alpha} must be > 0")
    rate, required = initializer_decay(eps, p0)
    if 1.0 / np.cosh(rate * g.half_length) ** 2 >= 1e-10:
        raise GridTooNarrow(required)
    t1 = (small_amplitude_coefficients(p0)[0] * eps) / np.cosh(rate * g.x) ** 2
    return t1, p0.with_alpha(alpha)


@dataclass(frozen=True)
class ContinuationConfig:
    eps_start: float = 1e-3
    eps_growth: float = 1.4       # geometric growth of the eps stage
    eps_switch_iters: int = 5     # leave the eps stage when Newton gets slower
    ds_max: float = 0.05          # step cap in the sup|dt1| + |dalpha| metric
    ds_min: float = 1e-8
    ds_grow: float = 1.3
    ds_shrink: float = 0.5
    fast_iters: int = 4           # corrector speed that earns a step increase
    max_points: int = 500
    m1_tol: Optional[float] = None   # default 1e-2 * (1 + eps1), resolved at run time
    m2_tol: float = 1e-2
    m3_cap: float = 1e2
    f_cap: float = 1e2
    tail_tol: float = 1e-9
    mode_tail_tol: float = 1e-7   # relative cosine-spectrum content near Nyquist
    widen_factor: float = 1.3     # box growth ratio when the tail violates
    n_max: int = 12288
    min_half_length: float = 16.0
    shrink_safety: float = 0.5    # predicted inner tail must be under this
                                  # fraction of tail_tol before halving the box
                                  # (the halved solve is verified and reverted
                                  # on failure, so the margin is hysteresis)
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def resolved_m1_tol(self, eps1: float) -> float:
        return self.m1_tol if self.m1_tol is not None else 1e-2 * (1.0 + eps1)


@dataclass(frozen=True, eq=False)
class Branch:
    points: list
    solutions: list
    stop_reason: str
    note: str = ""
    thresholds: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StopReport:
    stop_reason: str
    gamma_case: str
    admissible: Optional[bool]
    discrepancy: bool
    explanation: str


# --- exact regridding of even traces ----------------------------------------

def widen_grid(traces, g: Grid, factor: float = 2.0):
    """Grow the box by ~factor at fixed spacing; old samples embed exactly,
    the new outer region is filled with zeros.  The per-side pad is a
    multiple of 32 samples so N stays FFT-friendly."""
    pad = int(np.ceil(max(factor - 1.0, 0.0) * g.n_points / 2.0 / 32.0) * 32)
    pad = max(pad, 32)
    g2 = make_grid(g.half_length * (1.0 + 2.0 * pad / g.n_points),
                   g.n_points + 2 * pad)
    out = []
    for t in traces:
        t2 = np.zeros(g2.n_points)
        t2[pad:pad + g.n_points] = t
        out.append(t2)
    return out, g2


def shrink_grid(traces, g: Grid):
    """Halve L and N at fixed spacing by taking the inner samples, or None
    when the grid cannot be halved."""
    if g.n_points % 4 != 0 or g.n_points // 2 < 16:
        return None
    g2 = make_grid(0.5 * g.half_length, g.n_points // 2)
    lo = g.n_points // 4
    return [t[lo:lo + g.n_points // 2].copy() for t in traces], g2


def refine_grid(traces, g: Grid):
    """Double N at fixed L (exact spectral refinement of even traces)."""
    g2 = make_grid(g.half_length, 2 * g.n_points)
    out = []
    for t in traces:
        a = cosine_coefficients(t, g)
        out.append(values_from_cosine(
            np.concatenate([a, np.zeros(g.n_points // 2)]), g2))
    return out, g2


def _mode_tail_fraction(t1: np.ndarray, g: Grid) -> float:
    a = np.abs(cosine_coefficients(t1, g))
    cut = int(0.9 * g.n_modes)
    top = float(np.max(a[cut:])) if cut < g.n_modes else 0.0
    return top / max(float(np.max(a)), 1e-300)


def _inner_tail(t1: np.ndarray, g: Grid) -> float:
    """Max |t1| on what would be the outer 10% after halving the box."""
    window = np.abs(g.x) >= 0.45 * g.half_length
    return float(np.max(np.abs(t1[window])))


# --- the branch driver --------------------------------------------------------

def _distance(t_a, alpha_a, t_b, alpha_b) -> float:
    """Branch metric: sup|dt1| + |dalpha| with 1:1 weighting."""
    return float(np.max(np.abs(t_a - t_b))) + abs(alpha_a - alpha_b)


def continue_branch(p0: BaseParams, g: Grid,
                    cfg: ContinuationConfig = ContinuationConfig()) -> Branch:
    """Follow the solitary branch from the small-amplitude end.

    Starts at eps = eps_start with the asymptotic initializer, steps eps
    geometrically while the Newton corrector converges fast, then switches to
    pseudo-arclength with a secant predictor.  After each accepted point the
    limit monitors, the admissibility quantity, the decay tail, and the nodal
    property are recorded and checked.  Stops on a monitor threshold, a
    step-size underflow, a detected defect, or the point budget.
    """
    m1_tol = cfg.resolved_m1_tol(p0.eps1)
    thresholds = {
        "m1_tol": m1_tol, "m2_tol": cfg.m2_tol, "m3_cap": cfg.m3_cap,
        "f_cap": cfg.f_cap, "tail_tol": cfg.tail_tol,
        "eps_start": cfg.eps_start, "max_points": cfg.max_points,
    }
    points: list = []
    sols: list = []
    note = ""
    stop_reason: Optional[str] = None

    g_cur = g
    prev: Optional[tuple] = None   # (t1, alpha) on g_cur
    prev2: Optional[tuple] = None
    s_val = 0.0

    def move_stored(mover):
        """Apply a regrid operation to the remembered branch traces."""
        nonlocal prev, prev2
        stack = [q[0] for q in (prev, prev2) if q is not None]
        if not stack:
            return
        moved = mover(stack)
        if prev is not None:
            prev = (moved[0], prev[1])
        if prev2 is not None:
            prev2 = (moved[1], prev2[1])

    def converge_adequate(t_init, p: Params):
        """Newton solve plus box adequacy: refine/widen until the spectral
        band and the tail pass, then optionally shrink an oversized box."""
        nonlocal g_cur, prev, prev2
        t0 = t_init
        for _ in range(8):
            sol = newton_solve(t0, p, g_cur, cfg.newton)
            iters = len(sol.norm_history) - 1
            if (_mode_tail_fraction(sol.t1, g_cur) > cfg.mode_tail_tol
                    and 2 * g_cur.n_points <= cfg.n_max):
                (t0,), g_new = refine_grid([sol.t1], g_cur)
                move_stored(lambda ts: refine_grid(ts, g_cur)[0])
                g_cur = g_new
                continue
            if sol.tail > cfg.tail_tol:
                (probe,), g_probe = widen_grid([sol.t1], g_cur, cfg.widen_factor)
                if g_probe.n_points > cfg.n_max:
                    raise NewtonError(
                        f"tail {sol.tail:.2e} above tolerance but the mode "
                        f"budget n_max={cfg.n_max} is exhausted")
                move_stored(lambda ts: widen_grid(ts, g_cur, cfg.widen_factor)[0])
                t0, g_cur = probe, g_probe
                continue
            if (_inner_tail(sol.t1, g_cur) < cfg.shrink_safety * cfg.tail_tol
                    and 0.5 * g_cur.half_length >= cfg.min_half_length):
                shrunk = shrink_grid([sol.t1], g_cur)
                if shrunk is not None:
                    (t_try,), g_try = shrunk
                    g_old, prev_old, prev2_old = g_cur, prev, prev2
                    try:
                        move_stored(lambda ts: shrink_grid(ts, g_cur)[0])
                        g_cur = g_try
                        sol_try = newton_solve(t_try, p, g_cur, cfg.newton)
                        if sol_try.tail <= cfg.tail_tol:
                            return sol_try, iters
                    except NewtonError:
                        pass
                    g_cur, prev, prev2 = g_old, prev_old, prev2_old
            return sol, iters
        raise NewtonError("box adaptation did not settle within 8 rounds")

    def accept(sol: WaveSolution) -> bool:
        """Record a converged point; returns False when the branch must stop."""
        nonlocal s_val, prev, prev2, stop_reason, note
        p = sol.params
        m1, m2, m3 = surface_gradient_bounds(sol.t1, p, sol.grid)
        lam = lambda_min(sol.t1, p, sol.grid)
        if not p.alpha < p.alpha_cr:
            stop_reason = "STEP_FAILURE"
            note = "defect: accepted parameters left the subcritical regime"
            return False
        nod = nodal_check(sol, tail_floor=10.0 * cfg.tail_tol)
        if not nod.passed:
            stop_reason = "STEP_FAILURE"
            note = (f"defect: nodal monotonicity failed at "
                    f"{len(nod.violations)} sample(s)")
            return False
        s_new = s_val + _distance(sol.t1, p.alpha, prev[0], prev[1]) \
            if prev is not None else 0.0
        points.append(BranchPoint(
            s=s_new, alpha=p.alpha, amplitude=sol.amplitude,
            monitor_m1=m1, monitor_m2=m2, monitor_m3=m3,
            froude=p.froude, lambda_min=lam, residual_norm=sol.residual_norm))
        sols.append(sol)
        s_val = s_new
        prev2 = prev
        prev = (sol.t1.copy(), p.alpha)
        if m1 < m1_tol:
            stop_reason = "M1_VANISHING"
        elif m2 < cfg.m2_tol:
            stop_reason = "M2_VANISHING"
        elif m3 > cfg.m3_cap:
            stop_reason = "M3_BLOWUP"
        elif p.froude > cfg.f_cap:
            stop_reason = "FROUDE_BLOWUP"
        return stop_reason is None

    # first point
    eps = cfg.eps_start
    t_init, p = init_small(eps, p0, g_cur)
    try:
        sol, _ = converge_adequate(t_init, p)
    except NewtonError as exc:
        raise NewtonError(f"branch start failed at eps={eps}: {exc}") from exc
    accept(sol)

    stage = "eps"
    ds = None
    while stop_reason is None:
        if len(points) >= cfg.max_points:
            stop_reason = "BUDGET"
            note = "point budget exhausted"
            break

        if stage == "eps":
            eps_new = eps * cfg.eps_growth
            if p0.alpha_cr - eps_new <= 1e-4 * p0.alpha_cr or eps_new > 0.1:
                stage = "arc"
                continue
            try:
                t_pred, p_new = init_small(eps_new, p0, g_cur)
                sol, iters = converge_adequate(t_pred, p_new)
            except (NewtonError, ValidationError):
                stage = "arc"
                continue
            if not accept(sol):
                break
            eps = eps_new
            if iters > cfg.eps_switch_iters:
                stage = "arc"
            continue

        # pseudo-arclength stage
        if prev2 is None:
            # tangent from the eps-derivative of the asymptotic family
            d_eps = 1e-3 * eps if eps * (1 + 1e-3) <= 0.1 else -1e-3 * eps
            t_hi, _ = init_small(eps + d_eps, p0, g_cur)
            t_lo, _ = init_small(eps, p0, g_cur)
            tan_t = (t_hi - t_lo) / d_eps
            tan_a = -1.0
        else:
            tan_t = prev[0] - prev2[0]
            tan_a = prev[1] - prev2[1]
        scale = float(np.max(np.abs(tan_t))) + abs(tan_a)
        if scale == 0.0:
            stop_reason = "STEP_FAILURE"
            note = "degenerate tangent"
            break
        tan_t, tan_a = tan_t / scale, tan_a / scale
        if ds is None:
            ds = _distance(prev[0], prev[1], prev2[0], prev2[1]) \
                if prev2 is not None else cfg.ds_max / 5.0
            ds = min(ds, cfg.ds_max)

        c = cosine_coefficients(tan_t, g_cur)
        c_norm = float(np.sqrt(c @ c + tan_a * tan_a))
        c_coeff, c_alpha = c / c_norm, tan_a / c_norm

        stepped = False
        while ds >= cfg.ds_min:
            t_pred = prev[0] + ds * tan_t
            a_pred = prev[1] + ds * tan_a
            try:
                # with_alpha raises ValidationError for a_pred <= 0
                sol = newton_solve(t_pred, p0.with_alpha(a_pred), g_cur,
                                   cfg.newton, tangent=(c_coeff, c_alpha))
            except (NewtonError, ValidationError):
                ds *= cfg.ds_shrink
                continue
            iters = len(sol.norm_history) - 1
            try:
                sol, iters2 = converge_adequate(sol.t1, sol.params)
            except NewtonError as exc:
                stop_reason = "STEP_FAILURE"
                note = f"box adaptation failed: {exc}"
                stepped = True
                break
            if not accept(sol):
                stepped = True
                break
            if max(iters, iters2) <= cfg.fast_iters:
                ds = min(ds * cfg.ds_grow, cfg.ds_max)
            stepped = True
            break
        if not stepped:
            stop_reason = "STEP_FAILURE"
            note = f"step size underflowed below {cfg.ds_min:.1e}"

    return Branch(points=points, solutions=sols, stop_reason=stop_reason,
                  note=note, thresholds=thresholds)


_EXPLANATIONS = {
    "M1_VANISHING": ("stagnation/extreme-wave indicator: the squared fluid "
                     "speed plus eps1 times the squared electric field "
                     "approaches zero at the wave crest"),
    "M2_VANISHING": ("surface-gradient degeneration: inf |grad eta| -> 0, "
                     "a singularity forms on the free surface"),
    "M3_BLOWUP": ("surface-gradient blow-up: sup |grad eta| -> infinity, the "
                  "conformal parametrization degenerates"),
    "FROUDE_BLOWUP": "the dimensionless wave speed grows without bound",
    "BUDGET": "point budget exhausted before any limit indicator triggered",
    "STEP_FAILURE": "step size underflow or a detected defect",
}


def admissible_triggers(gamma: float) -> set:
    """Monitor triggers compatible with the limiting alternatives for the
    given vorticity sign."""
    if gamma > 0:
        return {"M2_VANISHING", "M3_BLOWUP", "FROUDE_BLOWUP"}
    if gamma < 0:
        return {"M1_VANISHING", "M2_VANISHING", "FROUDE_BLOWUP"}
    return {"M1_VANISHING", "FROUDE_BLOWUP"}


def classify_stop(b: Branch, p) -> StopReport:
    """Map a branch's stop trigger to the limiting alternative admissible for
    the sign of the vorticity; triggers outside the admissible set are
    flagged as discrepancies rather than silently accepted."""
    gamma = p.gamma
    case = "gamma>0" if gamma > 0 else ("gamma<0" if gamma < 0 else "gamma=0")
    reason = b.stop_reason
    explanation = _EXPLANATIONS.get(reason, "unknown stop reason")
    if reason not in MONITOR_TRIGGERS:
        return StopReport(stop_reason=reason, gamma_case=case, admissible=None,
                          discrepancy=False,
                          explanation=explanation + (f" ({b.note})" if b.note else ""))
    ok = reason in admissible_triggers(gamma)
    if not ok:
        explanation += ("; NOT in the admissible limit set for this vorticity "
                        "sign - flagged as a discrepancy")
    return StopReport(stop_reason=reason, gamma_case=case, admissible=ok,
                      discrepancy=not ok, explanation=explanation)
