"""Planar reduced dynamics of the small-amplitude regime: the truncated
right-hand side, its first integral, an energy-conserving RK4 check
integrator, and phase-portrait sampling.

In the scaled variables a = eps Q, x = sqrt((1 + eps1)/eps) X of the
long-wave reduction (see continuation.small_amplitude_coefficients) the
truncated system is
    Q' = P,   P' = 3 Q - c2 Q^2,    c2 = (3/2)(3 - 3 gamma + gamma^2 + 3 eps1),
with first integral
    E = P^2/2 - (3/2) Q^2 + (c2/3) Q^3
(obtained by multiplying the equation by Q' and integrating).  The separatrix
through (q0, 0), q0 = 9/(2 c2) = 3/(3 - 3 gamma + gamma^2 + 3 eps1), is the
localized sech^2 orbit, and q0 is the crest prefactor of the small-amplitude
family; only the second-order truncation is implemented and the truncation
order is recorded on every orbit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .continuation import small_amplitude_coefficients
from .model import BaseParams, ValidationError

TRUNCATION_ORDER = 2  # quadratic truncation of the reduced right-hand side
ESCAPE_FACTOR = 10.0  # an orbit with |Q| above this times q0 has escaped


class OdeParams(BaseParams):
    """(gamma, eps1) of the scaled system, which does not depend on eps."""

    @cached_property
    def q0(self) -> float:
        """Crest value of the localized orbit in scaled variables: the crest
        prefactor of the small-amplitude family."""
        return small_amplitude_coefficients(self)[0]

    @cached_property
    def c2(self) -> float:
        """Coefficient of the quadratic term, (3/2)(3 - 3 gamma + gamma^2 + 3 eps1),
        positive for every real gamma once eps1 >= 0: 3 - 3 gamma + gamma^2
        has negative discriminant."""
        return 1.5 * (3.0 / self.q0)


def f_reduced(a: float, b: float, eps: float, p: OdeParams) -> float:
    """Truncated reduced right-hand side 3 eps A - c2 A^2.

    Independent of the slope argument b at this truncation order (the exact
    right-hand side is even in b).
    """
    return 3.0 * eps * a - p.c2 * a * a


def energy(q, pdot, p: OdeParams):
    """First integral E = P^2/2 - (3/2) Q^2 + (c2/3) Q^3 of the scaled system."""
    q = np.asarray(q, dtype=float)
    pdot = np.asarray(pdot, dtype=float)
    val = 0.5 * pdot * pdot - 1.5 * q * q + (p.c2 / 3.0) * q ** 3
    return float(val) if val.ndim == 0 else val


@dataclass(frozen=True, eq=False)
class Orbit:
    x: np.ndarray
    q: np.ndarray
    p: np.ndarray
    energy_drift: float
    escaped: bool
    step_warning: bool          # set when the drift exceeds 1e-6
    truncation_order: int = TRUNCATION_ORDER


def _rhs(q, pdot, p: OdeParams):
    return pdot, f_reduced(q, pdot, 1.0, p)


def _rk4_step(q, v, h, p: OdeParams):
    """One classical RK4 step of size h from (q, v)."""
    k1q, k1p = _rhs(q, v, p)
    k2q, k2p = _rhs(q + 0.5 * h * k1q, v + 0.5 * h * k1p, p)
    k3q, k3p = _rhs(q + 0.5 * h * k2q, v + 0.5 * h * k2p, p)
    k4q, k4p = _rhs(q + h * k3q, v + h * k3p, p)
    return (q + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q),
            v + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p))


def _require_positive(name: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0):
        raise ValidationError(name, "must be finite and > 0")


def integrate_orbit(q_init: float, p_init: float, p: OdeParams,
                    dt: float, n_steps: int) -> Orbit:
    """Classical fixed-step RK4 on the scaled planar system.

    Terminates early with the escaped flag once |Q| exceeds
    ESCAPE_FACTOR * q0; flags the step size when the first-integral drift
    exceeds 1e-6.
    """
    _require_positive("dt", dt)
    qs = np.empty(n_steps + 1)
    ps = np.empty(n_steps + 1)
    qs[0], ps[0] = q_init, p_init
    q, v = float(q_init), float(p_init)
    escaped = False
    count = n_steps
    for i in range(n_steps):
        q, v = _rk4_step(q, v, dt, p)
        qs[i + 1], ps[i + 1] = q, v
        if abs(q) > ESCAPE_FACTOR * p.q0:
            escaped = True
            count = i + 1
            break
    qs, ps = qs[:count + 1], ps[:count + 1]
    xs = dt * np.arange(count + 1)
    e = energy(qs, ps, p)
    drift = float(np.max(np.abs(e - e[0])))
    return Orbit(x=xs, q=qs, p=ps, energy_drift=drift,
                 escaped=escaped, step_warning=drift > 1e-6)


def phase_portrait(p: OdeParams, q0_list, dt: float = 1e-3,
                   x_max: float = 20.0) -> list:
    """Orbits launched from (Q0, 0) for each Q0; suitable for plotting.

    Launch points below the separatrix crest trace closed loops, the crest
    itself traces the localized orbit, and higher launches escape and are
    flagged.  dt and x_max must be finite and positive.
    """
    _require_positive("dt", dt)
    _require_positive("x_max", x_max)
    n_steps = int(round(x_max / dt))
    return [integrate_orbit(q0, 0.0, p, dt, n_steps) for q0 in q0_list]
