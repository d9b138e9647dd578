"""The package's one damped Newton iteration, for the surface equation at
fixed alpha and, bordered by an arclength row, as the pseudo-arclength
corrector.

The unknown is an even trace, represented by its cosine coefficients for the
linear solves.  Two linear paths, chosen by NewtonConfig.linear_solver and
dense_max_n: a dense collocation Jacobian with LU (deterministic, default for
N <= 1024) and preconditioned GMRES using the uniform-stream multiplier as
the preconditioner.  Above dense_max_n the corrector's bordered step (the
Jacobian augmented with the alpha column and the arclength row) is solved by
the same GMRES call, matrix-free.

Each accepted iterate is one SurfaceState, the one its residual came from.
The state is handed to the dense assembly, the bordered LU and every GMRES
matvec, so none of them re-derives the base fields of the iterate.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator, gmres

from .model import Grid, Params, WaveSolution, amplitude_of, symmetrize, tail_of
from .spectral import cosine_basis, cosine_coefficients, values_from_cosine
from .system import (
    NonFiniteTrace,
    SurfaceState,
    jacobian_apply,
    lambda_min,
    linear_multiplier,
    residual,
)


class NewtonError(RuntimeError):
    pass


class NoConvergence(NewtonError):
    """Iteration budget exhausted; carries the best iterate and norm history."""

    def __init__(self, message, best_t1=None, history=None):
        super().__init__(message)
        self.best_t1 = best_t1
        self.history = history or []


class LeftAdmissibleSet(NewtonError):
    """The iterate left the admissible set (lambda <= 0)."""


class SingularLinearSolve(NewtonError):
    """Jacobian factorization or Krylov iteration broke down."""


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-11            # sup-norm residual tolerance
    max_iter: int = 40
    damping: float = 0.5          # backtracking factor
    min_step: float = 2.0 ** -10
    linear_solver: str = "auto"   # auto | dense | krylov
    dense_max_n: int = 1024       # auto picks dense up to this N
    krylov_rtol: float = 1e-10
    krylov_maxiter: int = 400

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping must lie in (0, 1)")
        if not self.min_step > 0:
            raise ValueError("min_step must be > 0")
        if not self.krylov_rtol > 0:
            raise ValueError("krylov_rtol must be > 0")
        if self.krylov_maxiter < 1:
            raise ValueError("krylov_maxiter must be >= 1")
        if self.dense_max_n < 16:
            raise ValueError("dense_max_n must be >= 16")
        if self.linear_solver not in ("auto", "dense", "krylov"):
            raise ValueError("linear_solver must be auto, dense or krylov")


def build_solution(t1: np.ndarray, p: Params, g: Grid, tol: float,
                   history=None) -> WaveSolution:
    """WaveSolution record for a trace whose residual already meets tol."""
    rnorm = float(np.max(np.abs(residual(t1, p, g))))
    if rnorm > tol:
        raise NewtonError(f"residual norm {rnorm:.3e} exceeds tolerance {tol:.1e}")
    return WaveSolution(
        params=p,
        grid=g,
        t1=np.array(t1, dtype=float),
        residual_norm=rnorm,
        amplitude=amplitude_of(t1, g),
        tail=tail_of(t1, g),
        norm_history=list(history) if history is not None else None,
    )


def dense_jacobian(t1_or_state, p: Params, g: Grid) -> np.ndarray:
    """Collocation Jacobian in the cosine basis at a trace or SurfaceState,
    assembled column-by-column (batched) from directional derivatives on
    basis traces."""
    basis = cosine_basis(g)                       # (M, N)
    dr = jacobian_apply(t1_or_state, basis, p, g)  # (M, N)
    return cosine_coefficients(dr, g).T           # (M, M): rows output, cols input


def _preconditioner(p: Params, g: Grid) -> np.ndarray:
    """Diagonal Fourier preconditioner 1/max(|m(k)|, floor); the floor guards
    the near-zero mode close to the bifurcation threshold."""
    floor = 1e-3 * (1.0 + p.eps1)
    m = np.abs(linear_multiplier(g.wavenumbers, p))
    return 1.0 / np.maximum(m, floor)


def _bordered_lu(state: SurfaceState, c: np.ndarray, c_alpha: float):
    """LU factorization of the dense bordered Jacobian [J b; c c_alpha]."""
    p, g = state.params, state.grid
    b = cosine_coefficients(state.alpha_derivative, g)
    big = np.block([[dense_jacobian(state, p, g), b[:, None]],
                    [c[None, :], np.array([[c_alpha]])]])
    try:
        return lu_factor(big)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularLinearSolve(f"bordered factorization failed: {exc}") from exc


def _use_dense(cfg: NewtonConfig, g: Grid) -> bool:
    if cfg.linear_solver == "dense":
        return True
    if cfg.linear_solver == "krylov":
        return False
    return g.n_points <= cfg.dense_max_n


def solve_newton_step(t1_or_state, r: np.ndarray, p: Params, g: Grid,
                      cfg: NewtonConfig, border=None):
    """Solve J dt = -r for the correction trace, J the linearization at a
    trace or at a SurfaceState (one state serves every matvec).

    With border = (b, c, c_alpha, n_val) it solves the bordered system
        [J  b      ] [da    ]     [r    ]
        [c  c_alpha] [dalpha] = - [n_val]
    instead, where b holds the cosine coefficients of dR/dalpha and the last
    row is the arclength constraint, and returns (dt, dalpha).  A bordered
    step always takes the Krylov path, preconditioned by diag(1/|m(k)|, 1);
    its dense counterpart is the frozen bordered LU in newton_solve.  The
    bordered operator stays invertible at an alpha fold, where J is singular.
    """
    m = g.n_modes
    rhs = -cosine_coefficients(r, g)
    state = SurfaceState.of(t1_or_state, p, g)
    if border is None and _use_dense(cfg, g):
        jac = dense_jacobian(state, p, g)
        try:
            sol = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularLinearSolve(f"dense factorization failed: {exc}") from exc
        if not np.all(np.isfinite(sol)):
            raise SingularLinearSolve("dense solve produced non-finite correction")
        return values_from_cosine(sol, g)

    diag = _preconditioner(p, g)

    def jac_coeffs(a):
        return cosine_coefficients(
            jacobian_apply(state, values_from_cosine(a, g), p, g), g)

    matvec = jac_coeffs
    if border is not None:
        b, c, c_alpha, n_val = border
        diag = np.append(diag, 1.0)
        rhs = np.append(rhs, -n_val)

        def matvec(x):
            return np.append(jac_coeffs(x[:m]) + b * x[m],
                             c @ x[:m] + c_alpha * x[m])

    size = rhs.size
    op = LinearOperator((size, size), matvec=matvec)
    pre = LinearOperator((size, size), matvec=lambda a: diag * a)
    sol, info = gmres(op, rhs, rtol=cfg.krylov_rtol, atol=0.0,
                      maxiter=cfg.krylov_maxiter, M=pre)
    if info != 0 or not np.all(np.isfinite(sol)):
        raise SingularLinearSolve(f"preconditioned GMRES failed (info={info})")
    dt = values_from_cosine(sol[:m], g)
    return dt if border is None else (dt, float(sol[m]))


def newton_solve(t1_init: np.ndarray, p: Params, g: Grid,
                 cfg: NewtonConfig = NewtonConfig(),
                 tangent: tuple | None = None) -> WaveSolution:
    """Damped Newton iteration on the surface equation, at fixed alpha or,
    with tangent = (c, c_alpha), as the pseudo-arclength corrector.

    With a tangent alpha is an unknown too, held by the arclength row
    <c, a - a0> + c_alpha (alpha - alpha0) = 0 through the initial point
    (a: cosine coefficients of the trace), and the merit is max(|R|, |row|).
    Every iterate is re-symmetrized to even; candidates with lambda <= 0,
    alpha outside (0, alpha_cr) or no merit decrease are rejected by
    backtracking.  Deterministic on the dense path.

    The dense path has two Jacobian-refresh policies.  A fixed-alpha solve
    refactors every step: a frozen Jacobian loses its quadratic tail.  The
    corrector reuses the LU of [J dR/dalpha; c c_alpha] while the merit falls
    4x per step and refreshes it on slower progress or a stall: branch step
    control keys on the corrector's iteration counts, so refreshing every
    step would move the branch points and cost more factorizations.
    """
    if not p.alpha < p.alpha_cr:
        raise NewtonError(
            f"alpha={p.alpha} is not below alpha_cr={p.alpha_cr}; no solitary regime")
    t = symmetrize(np.array(t1_init, dtype=float))
    if not lambda_min(t, p, g) > 0:
        raise LeftAdmissibleSet("initial iterate has lambda <= 0")
    if tangent is not None:
        c, c_alpha = tangent
        a0, alpha0 = cosine_coefficients(t, g), p.alpha

    def arclength_row(t_c, alpha):
        if tangent is None:
            return 0.0
        return float(c @ (cosine_coefficients(t_c, g) - a0)
                     + c_alpha * (alpha - alpha0))

    state, n_val = SurfaceState(t, p, g), 0.0
    norm = float(np.max(np.abs(state.residual)))
    history = [norm]
    lu = None

    for _ in range(cfg.max_iter):
        if norm <= cfg.tol:
            return build_solution(t, p, g, cfg.tol, history)
        fresh = True
        if tangent is None:
            dt, d_alpha = solve_newton_step(state, state.residual, p, g, cfg), 0.0
        elif _use_dense(cfg, g):
            fresh = lu is None or norm > 0.25 * last_norm
            if fresh:
                lu = _bordered_lu(state, c, c_alpha)
            delta = lu_solve(lu, -np.append(cosine_coefficients(state.residual, g),
                                            n_val))
            if not np.all(np.isfinite(delta)):
                raise SingularLinearSolve("bordered solve produced non-finite update")
            dt, d_alpha = values_from_cosine(delta[:-1], g), float(delta[-1])
        else:
            b = cosine_coefficients(state.alpha_derivative, g)
            dt, d_alpha = solve_newton_step(state, state.residual, p, g, cfg,
                                            border=(b, c, c_alpha, n_val))
        last_norm = norm

        step = 1.0
        accepted = saw_admissible = False
        while step >= cfg.min_step:
            alpha = p.alpha + step * d_alpha
            try:
                cand = symmetrize(t + step * dt)
                if not np.all(np.isfinite(cand)):
                    raise NonFiniteTrace("candidate iterate")
                p_c = replace(p, alpha=alpha) if 0.0 < alpha < p.alpha_cr else None
                if p_c is None or lambda_min(cand, p_c, g) <= 0:
                    step *= cfg.damping
                    continue
                saw_admissible = True
                state_c = SurfaceState(cand, p_c, g)
            except NonFiniteTrace:
                step *= cfg.damping
                continue
            n_c = arclength_row(cand, alpha)
            normc = max(float(np.max(np.abs(state_c.residual))), abs(n_c))
            if normc < norm:
                t, p, state, n_val, norm = cand, p_c, state_c, n_c, normc
                history.append(norm)
                accepted = True
                break
            step *= cfg.damping

        if accepted:
            continue
        if not fresh:
            lu = None             # stalled on a stale Jacobian; retry fresh
            continue
        if not saw_admissible:
            raise LeftAdmissibleSet(
                "no damped step stays in the admissible set (lambda <= 0)")
        raise NoConvergence(
            f"damping stalled at residual {norm:.3e}", best_t1=t, history=history)

    if norm <= cfg.tol:
        return build_solution(t, p, g, cfg.tol, history)
    raise NoConvergence(
        f"iteration budget exhausted at residual {norm:.3e}",
        best_t1=t, history=history)
