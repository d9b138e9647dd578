"""Laminar conjugate-flow algebra: the depth-parameterized Bernoulli constant
and flow force of uniform streams, critical and conjugate depths, and the
bore-exclusion verdict.

A bore would need two distinct depths sharing both the Bernoulli constant and
the flow force; the convexity of the Bernoulli function rules this out, which
these routines verify numerically.

The critical and conjugate depths are the one positive roots of a quartic and
a cubic in d.  Each is found with numpy alone: np.roots of the reciprocal
polynomial in 1/d, whose leading coefficient -A (_depth_coefficients) never
vanishes, polished by one Newton step on the polynomial in d.  This module
loads no SciPy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Params

_EQ_TOL = 1e-12       # distance to alpha_cr treated as the critical speed
_FORCE_TOL = 1e-10    # flow-force equality threshold in the verdict


@dataclass(frozen=True)
class ConjugateFlowReport:
    d_cr: float
    d_star: Optional[float]
    qhat_at_1: float
    shat_at_1: float
    shat_at_star: Optional[float]
    bore_excluded: bool
    sign_consistent: bool
    reason: str


def qhat(d: float, p: Params):
    """Bernoulli constant of the uniform stream of depth d:
    (1/d^2)((2-gamma)/2 + gamma d^2/2)^2 + eps1/d^2 + 2 alpha (d - 1).

    qhat(1) = 1 + eps1 for every parameter set.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("depth must be > 0")
    val = ((0.5 * (2.0 - p.gamma) + 0.5 * p.gamma * d * d) ** 2 / (d * d)
           + p.eps1 / (d * d) + 2.0 * p.alpha * (d - 1.0))
    return float(val) if val.ndim == 0 else val


def shat(d: float, p: Params):
    """Flow force of the uniform stream of depth d."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("depth must be > 0")
    g = p.gamma
    val = ((2.0 - g) ** 2 / (8.0 * d) - g * g * d ** 3 / 24.0
           - (2.0 - g) * g * d / 4.0 - 0.5 * p.alpha * d * d
           + 0.5 * (2.0 * p.alpha + 1.0 + p.eps1) * d + p.eps1 / (2.0 * d))
    return float(val) if val.ndim == 0 else val


def _depth_coefficients(p: Params):
    """(A, b^2) with A = (1 - gamma/2)^2 + eps1 and b = gamma/2, so that
    qhat(d) = A/d^2 + b^2 d^2 + 2 alpha (d - 1) + const."""
    a = 1.0 - 0.5 * p.gamma
    A = a * a + p.eps1
    if A <= 0.0:
        raise ValueError("no critical depth: (1 - gamma/2)^2 + eps1 = 0 "
                         "(gamma = 2, eps1 = 0), so qhat increases for all d > 0")
    return A, 0.25 * p.gamma ** 2


def _positive_root(coeffs, lo: float, hi: float) -> float:
    """The one positive root d in [lo, hi] of the polynomial in d with
    coefficients coeffs (highest power first).

    The roots are taken in u = 1/d, whose coefficients are coeffs reversed:
    their leading coefficient -A stays away from 0 where the one in d,
    gamma^2/4, vanishes.  The single positive real u is polished by one
    Newton step on the polynomial in d.
    """
    u = np.roots(coeffs[::-1])
    positive = u.real[(u.imag == 0.0) & (u.real > 0.0)]
    if positive.size != 1:
        raise ValueError(f"expected one positive root in 1/d, found {positive.size}")
    d = 1.0 / float(positive[0])
    value = slope = 0.0
    for c in coeffs:          # Horner for the polynomial and its derivative
        slope = slope * d + value
        value = value * d + c
    d -= value / slope
    if not lo <= d <= hi:
        raise ValueError(f"depth {d!r} outside its bracket [{lo!r}, {hi!r}]")
    return d


def find_dcr(p: Params) -> float:
    """Depth minimizing the Bernoulli function: qhat'(d) d^3 / 2 =
    b^2 d^4 + alpha d^3 - A increases on d > 0 from -A, and is positive at
    1 + A/alpha, so its one positive root lies in (0, 1 + A/alpha)."""
    A, b2 = _depth_coefficients(p)
    return _positive_root((b2, p.alpha, 0.0, 0.0, -A), 0.0, 1.0 + A / p.alpha)


def find_dstar(p: Params) -> Optional[float]:
    """The unique depth other than 1 matching the unit-depth Bernoulli
    constant, or None in the degenerate tangency at the critical speed.

    (qhat(d) - qhat(1)) d^2 / (d - 1) is the cubic
    C(d) = b^2 d^3 + (b^2 + 2 alpha) d^2 - A d - A, with one sign change in
    its coefficients, hence one positive root.  C(0) = -A and
    C(1) = 2 (alpha - alpha_cr), so the root lies in (1, 1 + A/alpha) when
    alpha < alpha_cr, beyond the critical depth, and in (0, 1) otherwise.
    """
    A, b2 = _depth_coefficients(p)
    if abs(p.alpha - p.alpha_cr) < _EQ_TOL:
        return None
    lo, hi = (1.0, 1.0 + A / p.alpha) if p.alpha < p.alpha_cr else (0.0, 1.0)
    return _positive_root((b2, b2 + 2.0 * p.alpha, -A, -A), lo, hi)


def bore_verdict(p: Params) -> ConjugateFlowReport:
    """Assemble the conjugate-flow report.

    Bores are excluded when no second depth shares both invariants: either
    the conjugate depth does not exist (critical speed) or its flow force
    differs from the unit-depth value.  The sign of that difference must
    agree with the sign of alpha_cr - alpha.
    """
    d_cr = find_dcr(p)
    d_star = find_dstar(p)
    s1 = shat(1.0, p)
    if d_star is None:
        return ConjugateFlowReport(
            d_cr=d_cr, d_star=None, qhat_at_1=qhat(1.0, p), shat_at_1=s1,
            shat_at_star=None, bore_excluded=True,
            reason="unique depth: the Bernoulli level set degenerates to d = 1",
            sign_consistent=True)
    s_star = shat(d_star, p)
    gap = s_star - s1
    excluded = abs(gap) > _FORCE_TOL
    sign_ok = (np.sign(gap) == np.sign(p.alpha_cr - p.alpha)) if excluded else False
    reason = ("flow-force mismatch between conjugate depths"
              if excluded else
              "flow forces coincide within tolerance; verdict inconclusive")
    return ConjugateFlowReport(
        d_cr=d_cr, d_star=d_star, qhat_at_1=qhat(1.0, p), shat_at_1=s1,
        shat_at_star=s_star, bore_excluded=excluded, reason=reason,
        sign_consistent=bool(sign_ok))
