"""Branch construction: asymptotic small-amplitude initializer, parameter
stepping in the distance to the critical speed, pseudo-arclength stepping at
larger amplitude, and the limit monitors as stop conditions.

continue_branch is a loop over steps, one per point, the first included:
_step predicts, corrects with newton_solve and adapts the box (_adapt) and
returns a frozen StepRecord, which the loop alone folds into its state (the
grid, the last point and secant, the points, the step control).  The stages
differ in their predictor and in what a failure does.

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
    the boundary) of the small-amplitude initializer at eps, which must lie
    in its regime 0 < eps <= 0.1."""
    if not 0.0 < eps <= 0.1:
        raise ValidationError("eps", "initializer regime is 0 < eps <= 0.1")
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
    rate, required = initializer_decay(eps, p0)
    alpha = p0.alpha_cr - eps
    if alpha <= 0:
        raise ValidationError("eps", f"alpha = alpha_cr - eps = {alpha} must be > 0")
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

    def __post_init__(self):
        if self.max_points < 1:
            raise ValidationError("max_points", "must be >= 1")
        for name in ("m1_tol", "m2_tol", "m3_cap", "f_cap", "tail_tol"):
            value = getattr(self, name)
            if name == "m1_tol" and value is None:
                continue
            if not (np.isfinite(value) and value > 0):
                raise ValidationError(name, "must be finite and > 0")

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


@dataclass(frozen=True)
class StepRecord:
    """What a step hands the loop: the adequate solution, or an error (its
    traceback dropped, as it pins the failed solve's arrays) with sol None if
    prediction or corrector failed, else the last solution before it."""
    sol: Optional[WaveSolution]
    error: Optional[Exception] = None
    iters: int = 0              # corrector iterations
    adequate_iters: int = 0     # iterations of the solve that produced sol
    regrids: tuple = ()         # committed (regrid, source grid, new grid)


def _adapt(sol: WaveSolution, iters: int, cfg: ContinuationConfig):
    """Adapt the box to a converged solution: refine (N doubled at fixed L)
    while the cosine spectrum carries energy near Nyquist, widen (L and N
    grown by WIDEN_FACTOR, spacing kept) while the tail exceeds tail_tol,
    then halve an oversized box.  Each regrid re-solves at fixed alpha and
    commits when that solve succeeds, a halving only when its tail passes
    too.  Returns (sol, iters, regrids, error): the adequate solution, the
    iterations of the solve behind it (a halving does not count), the
    committed regrids, and the NewtonError that ended adaptation, or None."""
    regrids = []
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
            return sol, iters, regrids, None
        halving = regrid is shrink_grid
        moved = regrid(sol.t1, g_sol)
        if moved is None:
            return sol, iters, regrids, None
        t_new, g_new = moved
        if g_new.n_points > N_MAX:
            return sol, iters, regrids, NewtonError(
                f"tail {sol.tail:.2e} above tolerance but the mode "
                f"budget n_max={N_MAX} is exhausted")
        try:
            new = newton_solve(t_new, sol.params, g_new, cfg.newton)
        except NewtonError as exc:
            return sol, iters, regrids, None if halving else exc.with_traceback(None)
        if halving and new.tail > cfg.tail_tol:
            return sol, iters, regrids, None
        regrids.append((regrid, g_sol, g_new))
        if halving:
            return new, iters, regrids, None
        sol, iters = new, len(new.norm_history) - 1
    return sol, iters, regrids, NewtonError(
        "box adaptation did not settle within 8 rounds")


def _step(p0: BaseParams, g: Grid, cfg: ContinuationConfig,
          eps: Optional[float] = None, arc: Optional[tuple] = None) -> StepRecord:
    """Predict, correct with newton_solve on g, adapt the box.  arc None
    predicts the initializer at eps; arc = (prev, ds, tan_t, tan_a) predicts
    ds along the unit tangent and corrects on the arclength hyperplane."""
    try:
        if arc is None:
            t_pred, p_pred = init_small(eps, p0, g)
            tangent = None
        else:
            prev, ds, tan_t, tan_a = arc
            c = cosine_coefficients(tan_t, g)
            c_norm = float(np.sqrt(c @ c + tan_a * tan_a))
            tangent = (c / c_norm, tan_a / c_norm)
            t_pred = prev[0] + ds * tan_t
            # with_alpha raises ValidationError for alpha <= 0
            p_pred = p0.with_alpha(prev[1] + ds * tan_a)
        sol = newton_solve(t_pred, p_pred, g, cfg.newton, tangent=tangent)
    except (NewtonError, ValidationError) as exc:
        return StepRecord(None, exc.with_traceback(None))
    iters = len(sol.norm_history) - 1
    sol, adequate_iters, regrids, error = _adapt(sol, iters, cfg)
    return StepRecord(sol, error, iters, adequate_iters, tuple(regrids))


def _accept(sol: WaveSolution, s: float, cfg: ContinuationConfig):
    """Check a converged candidate at arclength s with one SurfaceState for
    the monitors, lambda and the nodal check.  Returns (point, stop_reason,
    note); point is None on a nodal defect."""
    p = sol.params
    state = SurfaceState(sol.t1, p, sol.grid)
    m1, m2, m3 = state.monitors
    lam = state.lambda_min
    nod = nodal_check(state, tail_floor=10.0 * cfg.tail_tol)
    if not nod.passed:
        return None, "STEP_FAILURE", (f"defect: nodal monotonicity failed at "
                                      f"{len(nod.violations)} sample(s)")
    point = BranchPoint(s=s, alpha=p.alpha, amplitude=sol.amplitude,
                        monitor_m1=m1, monitor_m2=m2, monitor_m3=m3, froude=p.froude,
                        lambda_min=lam, residual_norm=sol.residual_norm)
    crossed = (m1 < cfg.resolved_m1_tol(p.eps1), m2 < cfg.m2_tol,
               m3 > cfg.m3_cap, p.froude > cfg.f_cap)
    # the first crossed monitor, in MONITOR_TRIGGERS order, stops the branch
    return point, next((r for r, on in zip(MONITOR_TRIGGERS, crossed) if on), None), ""


def continue_branch(p0: BaseParams, g: Grid,
                    cfg: ContinuationConfig = ContinuationConfig()) -> Branch:
    """Follow the solitary branch from the small-amplitude end: the eps stage
    predicts the initializer at eps growing geometrically while the corrector
    converges fast, the arclength stage along the secant into the last point.
    Stops on a monitor threshold, a step-size underflow, a failed box
    adaptation, a detected defect, or the point budget."""
    thresholds = {
        "m1_tol": cfg.resolved_m1_tol(p0.eps1), "m2_tol": cfg.m2_tol,
        "m3_cap": cfg.m3_cap, "f_cap": cfg.f_cap, "tail_tol": cfg.tail_tol,
        "eps_start": cfg.eps_start, "max_points": cfg.max_points,
    }
    points, sols = [], []
    stop_reason: Optional[str] = None

    g_cur = g
    prev: Optional[tuple] = None     # (t1, alpha) of the last point, on g_cur
    secant: Optional[tuple] = None   # (dt1, dalpha) into prev, on g_cur
    s_val = 0.0
    eps = cfg.eps_start
    stage = "eps"
    ds = None
    while stop_reason is None:
        if len(points) >= cfg.max_points:
            stop_reason, note = "BUDGET", "point budget exhausted"
            break

        if stage == "eps":
            eps_new = eps * EPS_GROWTH if points else eps
            # an eps_new past init_small's regime fails in the corrector,
            # which also switches to arclength
            if points and p0.alpha_cr - eps_new <= 1e-4 * p0.alpha_cr:
                stage = "arc"
                continue
            step = _step(p0, g_cur, cfg, eps_new)
        else:
            # with one eps-stage point there is no secant: take the family's
            tan_t, tan_a = (secant if secant is not None
                            else _family_tangent(eps, p0, g_cur))
            scale = _step_length(tan_t, tan_a)
            if scale == 0.0:
                stop_reason, note = "STEP_FAILURE", "degenerate tangent"
                break
            if ds is None:
                # the first arclength step repeats the last secant step
                ds = min(scale if secant is not None else DS_MAX / 5.0, DS_MAX)
            if ds < DS_MIN:
                stop_reason = "STEP_FAILURE"
                note = f"step size underflowed below {DS_MIN:.1e}"
                break
            step = _step(p0, g_cur, cfg, arc=(prev, ds, tan_t / scale, tan_a / scale))

        # committed regrids stand, also when a later adaptation round failed
        for regrid, g_src, g_new in step.regrids:
            if prev is not None:
                prev = (regrid(prev[0], g_src)[0], prev[1])
            if secant is not None:
                secant = (regrid(secant[0], g_src)[0], secant[1])
            g_cur = g_new

        if step.error is not None:
            exc = step.error
            if not points:
                if isinstance(exc, ValidationError):
                    raise exc
                raise NewtonError(f"branch start failed at eps={eps}: {exc}") from exc
            if stage == "eps":
                stage = "arc"
            elif step.sol is None:
                ds *= DS_SHRINK
            else:
                stop_reason, note = "STEP_FAILURE", f"box adaptation failed: {exc}"
            continue

        # a defect stops the branch, so the secant may move before the check
        sol = step.sol
        if prev is not None:
            secant = (sol.t1 - prev[0], sol.params.alpha - prev[1])
            s_val += _step_length(*secant)
        point, stop_reason, note = _accept(sol, s_val, cfg)
        if point is None:
            break
        points.append(point)
        sols.append(sol)
        prev = (sol.t1.copy(), sol.params.alpha)
        if stage == "eps":
            eps = eps_new
            if len(points) > 1 and step.adequate_iters > EPS_SWITCH_ITERS:
                stage = "arc"
        elif max(step.iters, step.adequate_iters) <= FAST_ITERS:
            ds = min(ds * DS_GROW, DS_MAX)

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
    "STEP_FAILURE": ("step size underflow, a failed box adaptation (mode "
                     "budget or 8 rounds exhausted) or a detected defect"),
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
    ok = reason in admissible_triggers(gamma) if reason in MONITOR_TRIGGERS else None
    if ok is None and b.note:
        explanation += f" ({b.note})"
    elif ok is False:
        explanation += ("; NOT in the admissible limit set for this vorticity "
                        "sign - flagged as a discrepancy")
    return StopReport(stop_reason=reason, gamma_case=case, admissible=ok,
                      discrepancy=ok is False, explanation=explanation)
