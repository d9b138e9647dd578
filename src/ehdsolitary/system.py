"""The nonlinear surface equation in the single unknown t1, its linearization,
and the admissibility quantity lambda.

The stream correction t2 and the electric correction t3 are eliminated
analytically: the kinematic surface condition forces
t2 = -gamma t1 - (gamma/2) t1^2 pointwise, and in conformal variables the
electric potential problem is solved exactly by the linear profile, so t3
and its normal derivative vanish identically.  The three-component form,
which keeps both as unknowns, is a test oracle (tests/three_component.py).

SurfaceState holds the surface fields of one iterate, its residual, its
fields at the interior heights, its admissibility quantity lambda, its
limit monitors and the pointwise coefficients of the linearization, so that
the residual, lambda, the alpha derivative, every Jacobian application and
every diagnostic check at that iterate share one evaluation of the base
state.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .model import Grid, Params
from .spectral import INTERIOR_LEVELS, _interior_fields, dtn_multiplier, surface_fields


class NonFiniteTrace(ArithmeticError):
    """A trace carries NaN/Inf; the current solve must abort with a diagnostic."""


def _require_finite(arr: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteTrace(f"non-finite values encountered in {label}")


def eliminated_t2(t1: np.ndarray, p: Params) -> np.ndarray:
    """Stream-trace forced by the kinematic surface condition."""
    return -p.gamma * t1 - 0.5 * p.gamma * t1 * t1


class SurfaceState:
    """The surface fields of one iterate (t1, alpha) and its Bernoulli
    residual, from one stacked forward transform of (t1, t2) and one stacked
    inverse transform.

    w1x = ddx(t1), w1y = dtn(t1), w2y = dtn(t2) with t2 = eliminated_t2(t1);
    stream = gamma (t1 + w1y + t1 w1y) + w2y + 1, gradsq = w1x^2 + (1 + w1y)^2
    and stag = 1 + eps1 - 2 alpha t1; t1_spectrum and t2_spectrum are the
    rffts of t1 and t2.  The residual is checked finite on construction.  A
    Newton iterate builds one state, and its lambda and every application of
    its linearization (jacobian_apply) read the state instead of re-deriving
    the fields; so do an accepted branch point's monitors, lambda and nodal
    check, and every check of the diagnostics.
    """

    def __init__(self, t1: np.ndarray, p: Params, g: Grid):
        t1 = np.asarray(t1, dtype=float)
        self.t1, self.params, self.grid = t1, p, g
        c, (self.w1x, self.w1y, self.w2y) = surface_fields(
            np.stack([t1, eliminated_t2(t1, p)]), g)
        self.t1_spectrum, self.t2_spectrum = c
        self.stream = p.gamma * (t1 + self.w1y + t1 * self.w1y) + self.w2y + 1.0
        self.gradsq = self.w1x * self.w1x + (1.0 + self.w1y) ** 2
        self.stag = 1.0 + p.eps1 - 2.0 * p.alpha * t1
        # R = (gamma (t1 + w1y + t1 w1y) + w2y + 1)^2 + eps1
        #     - (1 + eps1 - 2 alpha t1) (w1x^2 + (1 + w1y)^2)
        self.residual = self.stream * self.stream + p.eps1 - self.stag * self.gradsq
        _require_finite(self.residual, "Bernoulli residual")

    @classmethod
    def of(cls, base, p: Params, g: Grid) -> "SurfaceState":
        """base itself if it is a state of (p, g), else the state of the trace base."""
        if not isinstance(base, cls):
            return cls(base, p, g)
        if base.params != p or base.grid is not g:
            raise ValueError("state was built for other parameters or another grid")
        return base

    @cached_property
    def level_fields(self):
        """(w, w_x, w_y) of the harmonic extension of t1 at y = 1 and the
        INTERIOR_LEVELS, each of shape (1 + len(INTERIOR_LEVELS), N): the
        surface row is the state's own, the interior rows one inverse
        transform of t1_spectrum."""
        interior = _interior_fields(self.t1_spectrum, self.grid)
        return tuple(np.concatenate([surface[None], rows]) for surface, rows
                     in zip((self.t1, self.w1x, self.w1y), interior))

    @cached_property
    def lambda_min(self) -> float:
        """The admissibility quantity of t1: the inf of
        4 (1 + eps1 - 2 alpha w)^2 (w_x^2 + (1 + w_y)^2) over level_fields,
        the harmonic extension w of t1 sampled on the surface and at the
        INTERIOR_LEVELS heights."""
        p = self.params
        w, w_x, w_y = self.level_fields
        val = 4.0 * (1.0 + p.eps1 - 2.0 * p.alpha * w) ** 2 * (w_x ** 2 + (1.0 + w_y) ** 2)
        # np.min, unlike min, keeps a nan: such an iterate is not > 0
        return float(np.min(val))

    @property
    def monitors(self):
        """(m1, m2, m3): inf stag = inf (1 + eps1 - 2 alpha t1) and the
        (inf, sup) of |grad eta| on the surface."""
        grad = np.sqrt(self.gradsq)
        return float(np.min(self.stag)), float(np.min(grad)), float(np.max(grad))

    @property
    def alpha_derivative(self) -> np.ndarray:
        """Partial derivative of the Bernoulli residual with respect to alpha."""
        return 2.0 * self.t1 * self.gradsq

    @cached_property
    def coefficients(self):
        """Pointwise (a0, a1, a2, a3, a4) of the linearization
        J dt = a0 dt + a1 dtn(dt) + a2 ddx(dt) + a3 dtn(a4 dt)."""
        p, t1, w1y = self.params, self.t1, self.w1y
        return (2.0 * self.stream * p.gamma * (1.0 + w1y) + 2.0 * p.alpha * self.gradsq,
                2.0 * self.stream * p.gamma * (1.0 + t1) - 2.0 * self.stag * (1.0 + w1y),
                -2.0 * self.stag * self.w1x,
                2.0 * self.stream,
                -p.gamma * (1.0 + t1))


def residual(t1: np.ndarray, p: Params, g: Grid) -> np.ndarray:
    """Pointwise Bernoulli residual on the surface; identically zero iff
    (t1, alpha) solves the discrete system.  See SurfaceState."""
    return SurfaceState(t1, p, g).residual


def jacobian_apply(base, dt: np.ndarray, p: Params, g: Grid) -> np.ndarray:
    """Directional derivative of the Bernoulli residual at base in direction dt.

    base is a trace t1 or the SurfaceState built from it with the same p and
    g; a state is reused as is.  Linear in dt; at t1 = 0 its action on
    cos(kx) is the scalar multiplier linear_multiplier(k) times cos(kx).  dt
    may be a batch (m, N).  One stacked forward and one stacked inverse
    transform; at gamma = 0 the term a3 dtn(a4 dt) is skipped, because
    a4 = -gamma (1 + t1) is exactly zero there.
    """
    a0, a1, a2, a3, a4 = SurfaceState.of(base, p, g).coefficients
    dt = np.asarray(dt, dtype=float)
    rows = dt[None] if p.gamma == 0.0 else np.stack([dt, a4 * dt])
    _, (d1, h1, *h4) = surface_fields(rows, g)
    out = a0 * dt + a1 * h1 + a2 * d1
    if h4:
        out = out + a3 * h4[0]
    _require_finite(out, "Jacobian application")
    return out


def linear_multiplier(k, p: Params):
    """Scalar symbol of the linearization at the uniform stream:
    m(k) = 2 ((gamma + alpha) - (1 + eps1) k coth k).

    m(0) = -2 (alpha_cr - alpha), so the symbol loses invertibility exactly
    at the bifurcation threshold.
    """
    k = np.asarray(k, dtype=float)
    m = 2.0 * ((p.gamma + p.alpha) - (1.0 + p.eps1) * dtn_multiplier(k))
    return float(m) if m.ndim == 0 else m


def dispersion_root(p: Params):
    """The unique positive root of m(k) = 0 when alpha > alpha_cr, else None.

    k coth k increases strictly from 1, so a root exists iff
    target = (gamma + alpha)/(1 + eps1) > 1, and k coth k > k puts it in
    (0, target).
    """
    target = (p.gamma + p.alpha) / (1.0 + p.eps1)
    if target <= 1.0:
        return None
    from scipy.optimize import brentq   # loaded by the first root only

    f = lambda k: float(dtn_multiplier(np.array([k]))[0]) - target
    return float(brentq(f, 0.0, target, xtol=1e-14, rtol=8.9e-16))


def lambda_min(t1: np.ndarray, p: Params, g: Grid) -> float:
    """SurfaceState(t1, p, g).lambda_min, or nan when t1 is not finite, so
    that a non-finite trace reads as "not > 0" rather than raising."""
    try:
        return SurfaceState(t1, p, g).lambda_min
    except NonFiniteTrace:
        return float("nan")
