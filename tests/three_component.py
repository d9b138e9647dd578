"""Three-component oracle: the surface system with the stream trace t2 and
the electric trace t3 kept as unknowns instead of eliminated analytically.

Solving it must reproduce the package's single-unknown solve (t2 equal to
its closed form, t3 identically zero), which cross-checks the elimination in
ehdsolitary.system.
"""
import numpy as np

from ehdsolitary import Grid, NewtonConfig, NoConvergence, Params, SingularLinearSolve
from ehdsolitary.newton import DAMPING, MAX_ITER, MIN_STEP
from ehdsolitary.spectral import (
    cosine_coefficients,
    ddx,
    dtn,
    values_from_cosine,
)
from ehdsolitary.system import NonFiniteTrace, _require_finite
from helpers import cosine_basis, symmetrize


def three_component_residual(t1, t2, t3, p: Params, g: Grid):
    """Residual of the full system keeping the stream and electric traces as
    unknowns."""
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    t3 = np.asarray(t3, dtype=float)
    w1x = ddx(t1, g)
    w1y = dtn(t1, g)
    w2y = dtn(t2, g)
    w3y = dtn(t3, g)
    r1 = t2 + p.gamma * t1 + 0.5 * p.gamma * t1 * t1
    stream = p.gamma * (t1 + w1y + t1 * w1y) + w2y + 1.0
    r2 = (stream * stream
          + p.eps1 * (2.0 * w3y + w3y * w3y + 1.0)
          - (1.0 + p.eps1 - 2.0 * p.alpha * t1) * (w1x * w1x + (1.0 + w1y) ** 2))
    r3 = t3.copy()
    for r in (r1, r2, r3):
        _require_finite(r, "three-component residual")
    return r1, r2, r3


def three_component_jacobian_apply(t1, t2, t3, dt1, dt2, dt3, p: Params, g: Grid):
    """Directional derivative of three_component_residual; batched over
    leading axes of the direction triple."""
    gam = p.gamma
    w1x = ddx(t1, g)
    w1y = dtn(t1, g)
    w2y = dtn(t2, g)
    w3y = dtn(t3, g)
    stream = gam * (t1 + w1y + t1 * w1y) + w2y + 1.0
    gradsq = w1x * w1x + (1.0 + w1y) ** 2
    stag = 1.0 + p.eps1 - 2.0 * p.alpha * t1

    d1x = ddx(dt1, g)
    h1 = dtn(dt1, g)
    h2 = dtn(dt2, g)
    h3 = dtn(dt3, g)
    dr1 = dt2 + gam * dt1 + gam * t1 * dt1
    dstream = gam * (dt1 + h1 + dt1 * w1y + t1 * h1) + h2
    dgradsq = 2.0 * w1x * d1x + 2.0 * (1.0 + w1y) * h1
    dr2 = (2.0 * stream * dstream
           + p.eps1 * (2.0 * h3 + 2.0 * w3y * h3)
           + 2.0 * p.alpha * dt1 * gradsq
           - stag * dgradsq)
    dr3 = np.asarray(dt3, dtype=float).copy()
    return dr1, dr2, dr3


def newton_solve_three_component(t1_init, p: Params, g: Grid,
                                 cfg: NewtonConfig = NewtonConfig()):
    """Newton on the full system with the stream and electric traces kept as
    unknowns.  Returns (t1, t2, t3, history).  Dense only; intended as an
    oracle at moderate N."""
    m = g.n_modes
    basis = cosine_basis(g)
    zero = np.zeros_like(basis)

    t1 = symmetrize(np.array(t1_init, dtype=float))
    t2 = np.zeros_like(t1)
    t3 = np.zeros_like(t1)

    def full_residual(u1, u2, u3):
        r1, r2, r3 = three_component_residual(u1, u2, u3, p, g)
        return np.concatenate([cosine_coefficients(r1, g),
                               cosine_coefficients(r2, g),
                               cosine_coefficients(r3, g)])

    def sup_norm(u1, u2, u3):
        r1, r2, r3 = three_component_residual(u1, u2, u3, p, g)
        return max(float(np.max(np.abs(r))) for r in (r1, r2, r3))

    norm = sup_norm(t1, t2, t3)
    history = [norm]
    for _ in range(MAX_ITER):
        if norm <= cfg.tol:
            return t1, t2, t3, history
        jac = np.zeros((3 * m, 3 * m))
        for j, (d1, d2, d3) in enumerate(((basis, zero, zero),
                                          (zero, basis, zero),
                                          (zero, zero, basis))):
            dr1, dr2, dr3 = three_component_jacobian_apply(
                t1, t2, t3, d1, d2, d3, p, g)
            block = np.vstack([cosine_coefficients(dr1, g).T,
                               cosine_coefficients(dr2, g).T,
                               cosine_coefficients(dr3, g).T])
            jac[:, j * m:(j + 1) * m] = block
        try:
            upd = np.linalg.solve(jac, -full_residual(t1, t2, t3))
        except np.linalg.LinAlgError as exc:
            raise SingularLinearSolve(str(exc)) from exc
        du1 = values_from_cosine(upd[:m], g)
        du2 = values_from_cosine(upd[m:2 * m], g)
        du3 = values_from_cosine(upd[2 * m:], g)

        step, accepted = 1.0, False
        while step >= MIN_STEP:
            c1 = symmetrize(t1 + step * du1)
            c2 = symmetrize(t2 + step * du2)
            c3 = symmetrize(t3 + step * du3)
            try:
                normc = sup_norm(c1, c2, c3)
            except NonFiniteTrace:
                step *= DAMPING
                continue
            if normc < norm:
                t1, t2, t3, norm = c1, c2, c3, normc
                history.append(norm)
                accepted = True
                break
            step *= DAMPING
        if not accepted:
            raise NoConvergence(
                f"three-component damping stalled at {norm:.3e}", history=history)
    if norm <= cfg.tol:
        return t1, t2, t3, history
    raise NoConvergence(
        f"three-component budget exhausted at {norm:.3e}", history=history)
