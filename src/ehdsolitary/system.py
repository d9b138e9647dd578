"""The nonlinear surface equation in the single unknown t1, its linearization,
and the admissibility quantity lambda.

The stream correction t2 and the electric correction t3 are eliminated
analytically: the kinematic surface condition forces
t2 = -gamma t1 - (gamma/2) t1^2 pointwise, and in conformal variables the
electric potential problem is solved exactly by the linear profile, so t3
and its normal derivative vanish identically.  The three-component form,
which keeps both as unknowns, is a test oracle (tests/three_component.py).
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .model import Grid, Params
from .spectral import ddx, dtn, dtn_multiplier, eval_interior, eval_interior_dy


class NonFiniteTrace(ArithmeticError):
    """A trace carries NaN/Inf; the current solve must abort with a diagnostic."""


def _require_finite(arr: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteTrace(f"non-finite values encountered in {label}")


def eliminated_t2(t1: np.ndarray, p: Params) -> np.ndarray:
    """Stream-trace forced by the kinematic surface condition."""
    return -p.gamma * t1 - 0.5 * p.gamma * t1 * t1


def residual(t1: np.ndarray, p: Params, g: Grid) -> np.ndarray:
    """Pointwise Bernoulli residual on the surface; identically zero iff
    (t1, alpha) solves the discrete system.

    R = (gamma (t1 + w1y + t1 w1y) + w2y + 1)^2 + eps1
        - (1 + eps1 - 2 alpha t1) (w1x^2 + (1 + w1y)^2)
    """
    t1 = np.asarray(t1, dtype=float)
    w1x = ddx(t1, g)
    w1y = dtn(t1, g)
    w2y = dtn(eliminated_t2(t1, p), g)
    stream = p.gamma * (t1 + w1y + t1 * w1y) + w2y + 1.0
    gradsq = w1x * w1x + (1.0 + w1y) ** 2
    out = stream * stream + p.eps1 - (1.0 + p.eps1 - 2.0 * p.alpha * t1) * gradsq
    _require_finite(out, "Bernoulli residual")
    return out


def jacobian_apply(t1: np.ndarray, dt: np.ndarray, p: Params, g: Grid) -> np.ndarray:
    """Directional derivative of the Bernoulli residual at t1 in direction dt.

    Linear in dt; at t1 = 0 its action on cos(kx) is the scalar multiplier
    linear_multiplier(k) times cos(kx).  dt may be a batch (m, N).
    """
    t1 = np.asarray(t1, dtype=float)
    dt = np.asarray(dt, dtype=float)
    gam = p.gamma
    w1x = ddx(t1, g)
    w1y = dtn(t1, g)
    w2y = dtn(eliminated_t2(t1, p), g)
    stream = gam * (t1 + w1y + t1 * w1y) + w2y + 1.0
    gradsq = w1x * w1x + (1.0 + w1y) ** 2
    stag = 1.0 + p.eps1 - 2.0 * p.alpha * t1

    d1 = ddx(dt, g)
    h1 = dtn(dt, g)
    h2 = dtn(-gam * (1.0 + t1) * dt, g)
    dstream = gam * (dt + h1 + dt * w1y + t1 * h1) + h2
    dgradsq = 2.0 * w1x * d1 + 2.0 * (1.0 + w1y) * h1
    out = 2.0 * stream * dstream + 2.0 * p.alpha * dt * gradsq - stag * dgradsq
    _require_finite(out, "Jacobian application")
    return out


def alpha_derivative(t1: np.ndarray, p: Params, g: Grid) -> np.ndarray:
    """Partial derivative of the Bernoulli residual with respect to alpha."""
    t1 = np.asarray(t1, dtype=float)
    w1x = ddx(t1, g)
    w1y = dtn(t1, g)
    return 2.0 * t1 * (w1x * w1x + (1.0 + w1y) ** 2)


def linear_multiplier(k, p: Params):
    """Scalar symbol of the linearization at the uniform stream:
    m(k) = 2 ((gamma + alpha) - (1 + eps1) k coth k).

    m(0) = -2 (alpha_cr - alpha), so the symbol loses invertibility exactly
    at the bifurcation threshold.
    """
    k = np.asarray(k, dtype=float)
    m = 2.0 * ((p.gamma + p.alpha) - (1.0 + p.eps1) * dtn_multiplier(k))
    return float(m) if m.ndim == 0 else m


def dispersion_root(p: Params, k_max: float = 1e6):
    """The unique positive root of m(k) = 0 when alpha > alpha_cr, else None.

    k coth k increases strictly from 1, so a root exists iff
    (gamma + alpha)/(1 + eps1) > 1.
    """
    target = (p.gamma + p.alpha) / (1.0 + p.eps1)
    if target <= 1.0:
        return None
    f = lambda k: float(dtn_multiplier(np.array([k]))[0]) - target
    hi = 1.0
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > k_max:
            raise RuntimeError("dispersion root bracket expansion failed")
    return float(brentq(f, 1e-14, hi, xtol=1e-14, rtol=8.9e-16))


def lambda_min(t1: np.ndarray, p: Params, g: Grid,
               interior_levels=(0.25, 0.5, 0.75)) -> float:
    """Admissibility quantity: inf of 4 (1 + eps1 - 2 alpha w1)^2 |grad eta|^2
    sampled on the surface and at the given interior heights."""
    t1 = np.asarray(t1, dtype=float)
    t1x = ddx(t1, g)
    best = np.inf
    for y in (1.0,) + tuple(interior_levels):
        if y == 1.0:
            w1, w1x, w1y = t1, t1x, dtn(t1, g)
        else:
            w1 = eval_interior(t1, g, y)
            w1x = eval_interior(t1x, g, y)
            w1y = eval_interior_dy(t1, g, y)
        val = 4.0 * (1.0 + p.eps1 - 2.0 * p.alpha * w1) ** 2 * (w1x ** 2 + (1.0 + w1y) ** 2)
        best = min(best, float(np.min(val)))
    return best


def surface_gradient_bounds(t1: np.ndarray, p: Params, g: Grid):
    """(inf, sup) of |grad eta| on the surface, plus the stagnation monitor
    inf (1 + eps1 - 2 alpha t1).  Returns (m1, m2, m3)."""
    t1 = np.asarray(t1, dtype=float)
    grad = np.sqrt(ddx(t1, g) ** 2 + (1.0 + dtn(t1, g)) ** 2)
    m1 = float(np.min(1.0 + p.eps1 - 2.0 * p.alpha * t1))
    return m1, float(np.min(grad)), float(np.max(grad))
