"""Branch construction: asymptotic small-amplitude initializer, parameter
stepping in the distance to the critical speed, pseudo-arclength stepping at
larger amplitude, and the limit monitors as stop conditions.

Every point, the first included, is one step: predict, correct with
newton_solve, adapt the box, accept, control the step.  The stages differ in
their predictor and in what a failure does, nothing else.

The periodic box is adapted on the fly: it is widened (L and N grown by
WIDEN_FACTOR, spacing kept) whenever the measured tail exceeds tolerance,
refined (N doubled at fixed L) when the cosine spectrum carries energy near
the Nyquist band, and conservatively halved when the profile has become much
narrower than the box.  All three regrid operations are exact on the
trigonometric interpolant of an even trace.  A regrid commits, moving the
current grid and the stored last point and secant, only when its fixed-alpha
re-solve on the new grid succeeds.

Step control and grid adaptation are module constants; ContinuationConfig
holds only what a branch header records, plus the Newton configuration.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .diagnostics import nodal_check
from .model import (
    BaseParams,
    BranchPoint,
    Grid,
    ValidationError,
    WaveSolution,
    make_grid,
)
from .newton import NewtonConfig, NewtonError, newton_solve
from .spectral import cosine_coefficients, values_from_cosine
from .system import SurfaceState


def __getattr__(name):
    """continuation.lu_factor is newton.lu_factor, SciPy's own function, which
    no code here calls: bench/spans.py traces the dense LU under this name,
    so it must resolve, and resolving it is what imports scipy.linalg."""
    if name == "lu_factor":
        from . import newton
        return newton.lu_factor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


# Step control.
EPS_GROWTH = 1.4        # geometric growth of the eps stage
EPS_SWITCH_ITERS = 5    # leave the eps stage when Newton gets slower
DS_MAX = 0.05           # step cap in the sup|dt1| + |dalpha| metric
DS_MIN = 1e-8           # a step below this stops the branch on STEP_FAILURE
DS_GROW = 1.3
DS_SHRINK = 0.5
FAST_ITERS = 4          # corrector speed that earns a step increase

# Grid adaptation.
MODE_TAIL_TOL = 1e-7    # relative cosine-spectrum content near Nyquist
WIDEN_FACTOR = 1.3      # box growth ratio when the tail violates
N_MAX = 12288
MIN_HALF_LENGTH = 16.0
SHRINK_SAFETY = 0.5     # predicted inner tail must be under this fraction of
                        # tail_tol before halving the box (the halved solve is
                        # verified and dropped on failure, so the margin is
                        # hysteresis)


@dataclass(frozen=True)
class ContinuationConfig:
    """The start, the point budget and the stop thresholds of a branch run:
    what the branch header records, plus the Newton configuration."""
    eps_start: float = 1e-3
    max_points: int = 500
    m1_tol: Optional[float] = None   # default 1e-2 * (1 + eps1), resolved at run time
    m2_tol: float = 1e-2
    m3_cap: float = 1e2
    f_cap: float = 1e2
    tail_tol: float = 1e-9
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

def widen_grid(t: np.ndarray, g: Grid):
    """Grow the box by ~WIDEN_FACTOR at fixed spacing; the old samples embed
    exactly and the new outer region is filled with zeros.  The per-side pad
    is a positive multiple of 32 samples so N stays FFT-friendly."""
    pad = 32 * int(np.ceil((WIDEN_FACTOR - 1.0) * g.n_points / 64.0))
    g2 = make_grid(g.half_length * (1.0 + 2.0 * pad / g.n_points),
                   g.n_points + 2 * pad)
    t2 = np.zeros(g2.n_points)
    t2[pad:pad + g.n_points] = t
    return t2, g2


def shrink_grid(t: np.ndarray, g: Grid):
    """Halve L and N at fixed spacing by taking the inner samples, or None
    when the grid cannot be halved."""
    if g.n_points % 4 != 0 or g.n_points // 2 < 16:
        return None
    lo = g.n_points // 4
    return (t[lo:lo + g.n_points // 2].copy(),
            make_grid(0.5 * g.half_length, g.n_points // 2))


def refine_grid(t: np.ndarray, g: Grid):
    """Double N at fixed L (exact spectral refinement of an even trace)."""
    g2 = make_grid(g.half_length, 2 * g.n_points)
    a = np.concatenate([cosine_coefficients(t, g), np.zeros(g.n_points // 2)])
    return values_from_cosine(a, g2), g2


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

def _step_length(dt1, dalpha) -> float:
    """Branch metric: sup|dt1| + |dalpha| with 1:1 weighting."""
    return float(np.max(np.abs(dt1))) + abs(dalpha)


def _family_tangent(eps: float, p0: BaseParams, g: Grid):
    """(dt1/deps, dalpha/deps) of the small-amplitude family at eps, in
    closed form and on any box: t1 = A eps sech^2(u) with u = rate x and
    rate ~ sqrt(eps), so dt1/deps = A sech^2(u) (1 - u tanh u), and
    alpha = alpha_cr - eps."""
    u = initializer_decay(eps, p0)[0] * g.x
    prefactor = small_amplitude_coefficients(p0)[0]
    return prefactor / np.cosh(u) ** 2 * (1.0 - u * np.tanh(u)), -1.0


def continue_branch(p0: BaseParams, g: Grid,
                    cfg: ContinuationConfig = ContinuationConfig()) -> Branch:
    """Follow the solitary branch from the small-amplitude end.

    Every point, the first included, is one step: predict, correct with
    newton_solve, adapt the box, accept, then control the step.  The first
    point and the eps stage predict the asymptotic initializer at eps, which
    grows geometrically while the corrector converges fast; the arclength
    stage predicts along the secant into the last point and corrects on the
    arclength hyperplane.  After each accepted point the limit monitors, the
    admissibility quantity, the decay tail, and the nodal property are
    recorded and checked.  Stops on a monitor threshold, a step-size
    underflow, a detected defect, or the point budget.
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
    prev: Optional[tuple] = None     # (t1, alpha) of the last point, on g_cur
    secant: Optional[tuple] = None   # (dt1, dalpha) into prev, on g_cur
    s_val = 0.0

    def adapt(sol: WaveSolution, iters: int):
        """Box adequacy of a converged solution: refine while the cosine
        spectrum carries energy near Nyquist, widen while the tail exceeds
        tail_tol, then halve an oversized box.  Each regrid re-solves at
        fixed alpha on the new grid, and only a successful re-solve moves
        g_cur and the stored traces; a halving is kept only when its tail
        passes, else the point stays on its box.  Returns the adequate
        solution and the iteration count of the solve that produced it (a
        halving does not count)."""
        nonlocal g_cur, prev, secant
        for _ in range(8):
            g_sol = sol.grid
            if (_mode_tail_fraction(sol.t1, g_sol) > MODE_TAIL_TOL
                    and 2 * g_sol.n_points <= N_MAX):
                regrid = refine_grid
            elif sol.tail > cfg.tail_tol:
                regrid = widen_grid
            elif (_inner_tail(sol.t1, g_sol) < SHRINK_SAFETY * cfg.tail_tol
                    and 0.5 * g_sol.half_length >= MIN_HALF_LENGTH):
                regrid = shrink_grid
            else:
                return sol, iters
            halving = regrid is shrink_grid
            moved = regrid(sol.t1, g_sol)
            if moved is None:
                return sol, iters
            t_new, g_new = moved
            if g_new.n_points > N_MAX:
                raise NewtonError(
                    f"tail {sol.tail:.2e} above tolerance but the mode "
                    f"budget n_max={N_MAX} is exhausted")
            try:
                new = newton_solve(t_new, sol.params, g_new, cfg.newton)
            except NewtonError:
                if halving:
                    return sol, iters
                raise
            if halving and new.tail > cfg.tail_tol:
                return sol, iters
            if prev is not None:
                prev = (regrid(prev[0], g_sol)[0], prev[1])
            if secant is not None:
                secant = (regrid(secant[0], g_sol)[0], secant[1])
            g_cur = g_new
            if halving:
                return new, iters
            sol, iters = new, len(new.norm_history) - 1
        raise NewtonError("box adaptation did not settle within 8 rounds")

    def accept(sol: WaveSolution) -> bool:
        """Record a converged point; returns False when the branch must stop."""
        nonlocal s_val, prev, secant, stop_reason, note
        p = sol.params
        # one state serves the monitors, lambda and the nodal check
        state = SurfaceState(sol.t1, p, sol.grid)
        m1, m2, m3 = state.monitors
        lam = state.lambda_min
        if not p.alpha < p.alpha_cr:
            stop_reason = "STEP_FAILURE"
            note = "defect: accepted parameters left the subcritical regime"
            return False
        nod = nodal_check(state, tail_floor=10.0 * cfg.tail_tol)
        if not nod.passed:
            stop_reason = "STEP_FAILURE"
            note = (f"defect: nodal monotonicity failed at "
                    f"{len(nod.violations)} sample(s)")
            return False
        if prev is not None:
            secant = (sol.t1 - prev[0], p.alpha - prev[1])
            s_val += _step_length(*secant)
        points.append(BranchPoint(
            s=s_val, alpha=p.alpha, amplitude=sol.amplitude,
            monitor_m1=m1, monitor_m2=m2, monitor_m3=m3,
            froude=p.froude, lambda_min=lam, residual_norm=sol.residual_norm))
        sols.append(sol)
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

    eps = cfg.eps_start
    stage = "eps"
    ds = None
    while stop_reason is None:
        # the first point is always taken
        if points and len(points) >= cfg.max_points:
            stop_reason = "BUDGET"
            note = "point budget exhausted"
            break

        # predict
        if stage == "eps":
            eps_new = eps * EPS_GROWTH if points else eps
            if points and (p0.alpha_cr - eps_new <= 1e-4 * p0.alpha_cr
                           or eps_new > 0.1):
                stage = "arc"
                continue
            tangent = None
        else:
            # with one eps-stage point there is no secant: take the family's
            tan_t, tan_a = (secant if secant is not None
                            else _family_tangent(eps, p0, g_cur))
            scale = _step_length(tan_t, tan_a)
            if scale == 0.0:
                stop_reason = "STEP_FAILURE"
                note = "degenerate tangent"
                break
            if ds is None:
                # the first arclength step repeats the last secant step
                ds = min(scale if secant is not None else DS_MAX / 5.0, DS_MAX)
            if ds < DS_MIN:
                stop_reason = "STEP_FAILURE"
                note = f"step size underflowed below {DS_MIN:.1e}"
                break
            tan_t, tan_a = tan_t / scale, tan_a / scale
            c = cosine_coefficients(tan_t, g_cur)
            c_norm = float(np.sqrt(c @ c + tan_a * tan_a))
            tangent = (c / c_norm, tan_a / c_norm)

        # correct and adapt
        sol = None
        try:
            if stage == "eps":
                t_pred, p_pred = init_small(eps_new, p0, g_cur)
            else:
                t_pred = prev[0] + ds * tan_t
                # with_alpha raises ValidationError for alpha <= 0
                p_pred = p0.with_alpha(prev[1] + ds * tan_a)
            sol = newton_solve(t_pred, p_pred, g_cur, cfg.newton, tangent=tangent)
            iters = len(sol.norm_history) - 1
            sol, adequate_iters = adapt(sol, iters)
        except (NewtonError, ValidationError) as exc:
            if not points:
                if isinstance(exc, ValidationError):
                    raise
                raise NewtonError(f"branch start failed at eps={eps}: {exc}") from exc
            if stage == "eps":
                stage = "arc"
            elif sol is None:
                ds *= DS_SHRINK
            else:
                stop_reason = "STEP_FAILURE"
                note = f"box adaptation failed: {exc}"
            continue

        if not accept(sol):
            break
        if stage == "arc":
            if max(iters, adequate_iters) <= FAST_ITERS:
                ds = min(ds * DS_GROW, DS_MAX)
        else:
            if len(points) > 1 and adequate_iters > EPS_SWITCH_ITERS:
                stage = "arc"
            eps = eps_new

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
