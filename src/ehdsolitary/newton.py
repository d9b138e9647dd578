"""The package's one damped Newton iteration, for the surface equation at
fixed alpha and, bordered by an arclength row, as the pseudo-arclength
corrector.

The unknown is an even trace, represented by its cosine coefficients for the
linear solves.  Every Newton step is one solve of the bordered system
    [J  b      ] [da    ]     [R    ]
    [c  c_alpha] [dalpha] = - [n_val]
(Keller's bordered Newton), b the cosine coefficients of dR/dalpha.  The
corrector's last row is the arclength constraint; a fixed-alpha solve pins
alpha with c = 0, c_alpha = 1, n_val = 0, which gives dalpha = 0 exactly.
The bordered system is solved by LU of the dense collocation matrix
(deterministic, default for N <= DENSE_MAX_N) or by preconditioned GMRES on
the same operator, matrix-free.  The dense matrix is assembled from the
spectra of the linearization's pointwise coefficients, with no transform of
basis traces.  The GMRES preconditioner freezes J's principal coefficient:
a pointwise factor in x-space, then the uniform-stream multiplier; GMRES
gives up after KRYLOV_MAXITER restarts, so a stagnating solve fails fast.

Each iterate, the initial one and every damped candidate, is one
SurfaceState, which gives both its lambda and its residual; an accepted
candidate's state is handed to the dense assembly, the preconditioner and
every GMRES matvec, so none of them re-derives the base fields of the
iterate, and the converged state gives the solution's residual.

SciPy's solvers are imported by the first linear step that needs them:
scipy.linalg by the first dense LU, scipy.sparse.linalg by the first GMRES
solve.  Importing this module loads no SciPy, so neither does a process that
only reads solutions (diagnose, ode).  The names lu_factor, lu_solve, gmres
and LinearOperator resolve through the module __getattr__ to SciPy's own
functions, and the linear step looks them up on the module at every call,
so a rebinding of newton.lu_factor or newton.gmres is honoured.
"""
from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import Grid, Params, WaveSolution, amplitude_of, symmetrize, tail_of
from .spectral import cosine_coefficients, values_from_cosine
from .system import (
    NonFiniteTrace,
    SurfaceState,
    jacobian_apply,
    linear_multiplier,
)

MAX_ITER = 40              # Newton steps per solve
DAMPING = 0.5              # backtracking factor
MIN_STEP = 2.0 ** -10      # smallest damped step tried
DENSE_MAX_N = 1024         # linear_solver="auto" takes the dense LU up to this N
KRYLOV_RTOL = 1e-10
KRYLOV_MAXITER = 15        # GMRES restarts of 20 inner iterations

# SciPy solver -> the submodule that defines it, imported on first access
_SCIPY_SOLVERS = {"lu_factor": "scipy.linalg", "lu_solve": "scipy.linalg",
                  "gmres": "scipy.sparse.linalg",
                  "LinearOperator": "scipy.sparse.linalg"}
_solvers = sys.modules[__name__]


def __getattr__(name):
    """Resolve a SciPy solver name on first access: import its submodule and
    keep SciPy's function in the module globals, where later lookups find it."""
    if name not in _SCIPY_SOLVERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_SCIPY_SOLVERS[name]), name)
    globals()[name] = value
    return value


class NewtonError(RuntimeError):
    pass


class NoConvergence(NewtonError):
    """Iteration budget exhausted; carries the best iterate and norm history."""

    def __init__(self, message, best_t1=None, history=None):
        super().__init__(message)
        self.best_t1 = best_t1
        self.history = history or []


class LeftAdmissibleSet(NewtonError):
    """The iterate left the admissible set (lambda <= 0, or stag <= 0 on the
    surface)."""


class SingularLinearSolve(NewtonError):
    """Jacobian factorization or Krylov iteration broke down."""


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-11            # sup-norm residual tolerance
    linear_solver: str = "auto"   # auto | dense | krylov

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if self.linear_solver not in ("auto", "dense", "krylov"):
            raise ValueError("linear_solver must be auto, dense or krylov")


def build_solution(t1_or_state, p: Params, g: Grid, tol: float,
                   history=None) -> WaveSolution:
    """WaveSolution record for a trace or SurfaceState whose residual already
    meets tol; a state's residual is read, not evaluated again."""
    state = SurfaceState.of(t1_or_state, p, g)
    rnorm = float(np.max(np.abs(state.residual)))
    if rnorm > tol:
        raise NewtonError(f"residual norm {rnorm:.3e} exceeds tolerance {tol:.1e}")
    return WaveSolution(
        params=p,
        grid=g,
        t1=np.array(state.t1, dtype=float),
        residual_norm=rnorm,
        amplitude=amplitude_of(state.t1, g),
        tail=tail_of(state.t1, g),
        norm_history=list(history) if history is not None else None,
    )


def dense_jacobian(t1_or_state, p: Params, g: Grid,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Collocation Jacobian in the cosine basis at a trace or SurfaceState,
    rows output and columns input mode, from the spectra of the state's
    coefficients alone; written into out, an (M, M) array or view, when one
    is given, and returned.

    In the cosine basis, multiplying by a function f is the matrix
    P(f)[r, l] = (w_r / 2) (G[r - l] + G[r + l]), G the transform of f with
    its phase origin at x = 0 (indices mod N) and w_r the cosine weight
    |g.cosine_weights|; the DFT of a pointwise product is the circular
    convolution of the DFTs, so this is the discrete operator itself,
    aliasing included.  dtn and ddx are diagonal, so
        J = P(a0) + P(a1) diag(k coth k) + P_odd(a2) diag(i k)
            + P(a3) diag(k coth k) P(a4),
    P_odd taking the odd part of G.  P is a Toeplitz plus a Hankel window of
    one extended spectrum, summed in place; the last term is one matrix
    product, and vanishes at gamma = 0, where a4 = -gamma (1 + t1) is zero.
    Memory is out plus one (M, M) scratch array (two more at gamma != 0); no
    (M, N) basis is formed.
    """
    state = SurfaceState.of(t1_or_state, p, g)
    m, n = g.n_modes, g.n_points
    # G[0 .. N/2] with the phase origin moved from x = -L to x = 0
    spec = np.fft.rfft(np.stack(state.coefficients), axis=-1) * np.sign(g.cosine_weights)
    # G[j - (m - 1)] for j = 0 .. 3m - 3, from G[-j] = conj(G[j]) for real f
    j = (np.arange(3 * m - 2) - (m - 1)) % n
    ext = spec[:, np.minimum(j, n - j)]
    even = ext.real
    odd = ext.imag[2] * np.where(j <= n // 2, 1.0, -1.0)

    # J is written through its transpose jac_t, whose row l is column l of
    # J, so that a Fortran-ordered out is filled row by row in memory.  P of
    # an even spectrum is symmetric, so only the odd term and the diagonal
    # scalings see the transposition.
    def toeplitz_t(v):                # row l, column r: v[r - l]
        return sliding_window_view(v[:2 * m - 1], m)[::-1]

    def hankel(v):                    # row l, column r: v[r + l]
        return sliding_window_view(v[m - 1:], m)

    def product(v, dest):             # P(f) without its row weights
        return np.add(toeplitz_t(v), hankel(v), out=dest)

    jac = np.empty((m, m), order="F") if out is None else out
    jac_t, scratch = jac.T, np.empty((m, m))
    half_w = 0.5 * np.abs(g.cosine_weights)[:, None]
    mu = g.dtn_symbol[:, None]
    product(even[0], jac_t)
    jac_t += np.multiply(product(even[1], scratch), mu, out=scratch)
    # a2 ddx(cos(k_l x)) = -k_l a2 sin(k_l x)
    np.subtract(hankel(odd), toeplitz_t(odd), out=scratch)
    jac_t += np.multiply(scratch, g.ddx_symbol.imag[:, None], out=scratch)
    jac_t *= half_w.T
    if p.gamma != 0.0:
        left = np.multiply(product(even[3], scratch), half_w, out=scratch)
        right = product(even[4], np.empty((m, m)))
        right *= half_w * mu
        jac_t += (left @ right).T
    return jac


def _preconditioner(state: SurfaceState):
    """Approximate inverse of the principal part of J, on cosine
    coefficients: the factor c_edge / c(x) in x-space, then the symbol
    1/max(|m(k)|, floor).

    c = a1 + a3 a4 = -2 stag (1 + w1y) is J's coefficient of |k| at high
    wavenumbers; it is c_edge = -2 (1 + eps1) where the wave has decayed and
    shrinks at the crest as stag -> 0.  |m(k)| is floored at 1e-3 (1 + eps1)
    near the bifurcation threshold, and |c| at 1e-3 |c_edge| where stag or
    1 + w1y changes sign (stagnation, an overhang).
    """
    p, g = state.params, state.grid
    _, a1, _, a3, a4 = state.coefficients
    floor = 1e-3 * (1.0 + p.eps1)
    symbol = 1.0 / np.maximum(np.abs(linear_multiplier(g.wavenumbers, p)), floor)
    c = a1 + a3 * a4
    c_edge = -2.0 * (1.0 + p.eps1)
    factor = c_edge / np.copysign(np.maximum(np.abs(c), 1e-3 * abs(c_edge)), c)
    return lambda a: symbol * cosine_coefficients(factor * values_from_cosine(a, g), g)


def _use_dense(cfg: NewtonConfig, g: Grid) -> bool:
    if cfg.linear_solver == "auto":
        return g.n_points <= DENSE_MAX_N
    return cfg.linear_solver == "dense"


def _bordered_solver(state: SurfaceState, c: np.ndarray, c_alpha: float,
                     cfg: NewtonConfig, b: np.ndarray | None = None):
    """The linear step (r, n_val) -> (dt, dalpha) of the bordered system
    [J b; c c_alpha] at state, b defaulting to the state's dR/dalpha.

    Dense: one LU of the (M+1, M+1) matrix, reused by every call; J is
    written into its top-left block by dense_jacobian and the LU overwrites
    it.  Krylov: each call is one GMRES solve, matrix-free, so memory
    stays O(N), of at most KRYLOV_MAXITER restarts; the preconditioner is
    _preconditioner on the modes, one transform pair per application, and
    passes the border entry unchanged.  The bordered operator stays
    invertible at an alpha fold, where J is singular.
    """
    p, g = state.params, state.grid
    m = g.n_modes
    if b is None:
        b = cosine_coefficients(state.alpha_derivative, g)
    if _use_dense(cfg, g):
        # Fortran order, so that LAPACK factors the matrix where it stands
        big = np.empty((m + 1, m + 1), order="F")
        dense_jacobian(state, p, g, big[:m, :m])
        big[:m, m], big[m, :m], big[m, m] = b, c, c_alpha
        try:
            lu = _solvers.lu_factor(big, overwrite_a=True)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise SingularLinearSolve(f"bordered factorization failed: {exc}") from exc
        solve = lambda rhs: _solvers.lu_solve(lu, rhs)
    else:
        precondition = _preconditioner(state)

        def matvec(x):
            jx = cosine_coefficients(
                jacobian_apply(state, values_from_cosine(x[:m], g), p, g), g)
            return np.append(jx + b * x[m], c @ x[:m] + c_alpha * x[m])

        op = _solvers.LinearOperator((m + 1, m + 1), matvec=matvec)
        pre = _solvers.LinearOperator((m + 1, m + 1), matvec=lambda a: np.append(
            precondition(a[:m]), a[m]))

        def solve(rhs):
            sol, info = _solvers.gmres(op, rhs, rtol=KRYLOV_RTOL, atol=0.0,
                                       maxiter=KRYLOV_MAXITER, M=pre)
            if info != 0:
                raise SingularLinearSolve(f"preconditioned GMRES failed (info={info})")
            return sol

    def step(r, n_val):
        delta = solve(-np.append(cosine_coefficients(r, g), n_val))
        if not np.all(np.isfinite(delta)):
            raise SingularLinearSolve("bordered solve produced a non-finite update")
        return values_from_cosine(delta[:m], g), float(delta[m])

    return step


def solve_newton_step(t1_or_state, r: np.ndarray, p: Params, g: Grid,
                      cfg: NewtonConfig, border=None):
    """One Newton step at a trace or at a SurfaceState (one state serves
    every matvec): the correction trace dt of J dt = -r.

    With border = (b, c, c_alpha, n_val) it solves the bordered system
        [J  b      ] [da    ]     [r    ]
        [c  c_alpha] [dalpha] = - [n_val]
    instead and returns (dt, dalpha).  Without, the step is the same solve
    with the pinned border (dR/dalpha, 0, 1, 0), whose dalpha is exactly 0.
    """
    state = SurfaceState.of(t1_or_state, p, g)
    if border is None:
        return _bordered_solver(state, np.zeros(g.n_modes), 1.0, cfg)(r, 0.0)[0]
    b, c, c_alpha, n_val = border
    return _bordered_solver(state, c, c_alpha, cfg, b)(r, n_val)


def _past_stagnation(state: SurfaceState) -> bool:
    """Whether stag = 1 + eps1 - 2 alpha t1 fails to be positive somewhere on
    the surface.

    lambda squares stag, so it cannot tell an iterate past stagnation from
    one before it.  Every solution has stag = q^2 + eps1 |E|^2 >= 0 on the
    surface (q the fluid speed, |E| the field strength), so this test
    refuses no solution short of the limiting wave.  The interior is left to
    lambda: internal stagnation points are allowed."""
    return not np.min(state.stag) > 0


def _iterate_lambda(state: SurfaceState) -> float:
    """The state's lambda, with the level fields it is read from dropped: an
    iterate's state lives through its Newton step, which reads none of them
    (12 N doubles a state)."""
    lam = state.lambda_min
    vars(state).pop("level_fields", None)
    return lam


def newton_solve(t1_init: np.ndarray, p: Params, g: Grid,
                 cfg: NewtonConfig = NewtonConfig(),
                 tangent: tuple | None = None) -> WaveSolution:
    """Damped Newton iteration on the surface equation, at fixed alpha or,
    with tangent = (c, c_alpha), as the pseudo-arclength corrector.

    Alpha is an unknown held by the row <c, a - a0> + c_alpha (alpha - alpha0)
    = 0 through the initial point (a: cosine coefficients of the trace), and
    the merit is max(|R|, |row|).  Without a tangent the row is pinned,
    c = 0 and c_alpha = 1, so alpha stays fixed.  Every iterate is
    re-symmetrized to even; candidates with stag <= 0 on the surface,
    lambda <= 0, alpha outside (0, alpha_cr) or no merit decrease are
    rejected by backtracking, and an initial iterate with stag <= 0 or
    lambda <= 0 is refused.
    Deterministic on the dense path.

    Only the dense corrector reuses its linearization: it keeps the LU of
    [J dR/dalpha; c c_alpha] while the merit falls 4x per step and refreshes
    it on slower progress or a stall, because branch step control keys on
    the corrector's iteration counts, so refreshing every step would move
    the branch points and cost more factorizations.  A fixed-alpha solve
    refreshes every step (a frozen Jacobian loses its quadratic tail), and so
    does the Krylov solver (a Krylov chord changes the corrector's iteration
    counts at N = 2048 and 4096, and with them the branch points).
    """
    if not p.alpha < p.alpha_cr:
        raise NewtonError(
            f"alpha={p.alpha} is not below alpha_cr={p.alpha_cr}; no solitary regime")
    t = symmetrize(np.array(t1_init, dtype=float))
    try:
        state = SurfaceState(t, p, g)
    except NonFiniteTrace:
        state = None            # a non-finite iterate, whose lambda is nan
    if state is None or not _iterate_lambda(state) > 0:
        raise LeftAdmissibleSet("initial iterate has lambda <= 0")
    if _past_stagnation(state):
        raise LeftAdmissibleSet("initial iterate has stag <= 0 on the surface")
    c, c_alpha = (np.zeros(g.n_modes), 1.0) if tangent is None else tangent
    a0, alpha0 = cosine_coefficients(t, g), p.alpha

    def arclength_row(t_spectrum, alpha):
        return float(c @ (t_spectrum.real * g.cosine_weights - a0)
                     + c_alpha * (alpha - alpha0))

    n_val = 0.0
    norm = float(np.max(np.abs(state.residual)))
    history = [norm]
    chord = tangent is not None and _use_dense(cfg, g)
    step_of = None

    for _ in range(MAX_ITER):
        if norm <= cfg.tol:
            return build_solution(state, p, g, cfg.tol, history)
        fresh = step_of is None or not chord or norm > 0.25 * last_norm
        if fresh:
            step_of = _bordered_solver(state, c, c_alpha, cfg)
        dt, d_alpha = step_of(state.residual, n_val)
        last_norm = norm

        step = 1.0
        accepted = saw_admissible = False
        while step >= MIN_STEP:
            alpha = p.alpha + step * d_alpha
            try:
                cand = symmetrize(t + step * dt)
                if not np.all(np.isfinite(cand)):
                    raise NonFiniteTrace("candidate iterate")
                if not 0.0 < alpha < p.alpha_cr:
                    step *= DAMPING
                    continue
                p_c = replace(p, alpha=alpha)
                state_c = SurfaceState(cand, p_c, g)
            except NonFiniteTrace:
                step *= DAMPING
                continue
            if _past_stagnation(state_c) or _iterate_lambda(state_c) <= 0:
                step *= DAMPING
                continue
            saw_admissible = True
            n_c = arclength_row(state_c.t1_spectrum, alpha)
            normc = max(float(np.max(np.abs(state_c.residual))), abs(n_c))
            if normc < norm:
                t, p, state, n_val, norm = cand, p_c, state_c, n_c, normc
                history.append(norm)
                accepted = True
                break
            step *= DAMPING

        if accepted:
            continue
        if not fresh:
            step_of = None        # stalled on a stale Jacobian; retry fresh
            continue
        if not saw_admissible:
            raise LeftAdmissibleSet(
                "no damped step stays in the admissible set "
                "(lambda <= 0 or stag <= 0 on the surface)")
        raise NoConvergence(
            f"damping stalled at residual {norm:.3e}", best_t1=t, history=history)

    if norm <= cfg.tol:
        return build_solution(state, p, g, cfg.tol, history)
    raise NoConvergence(
        f"iteration budget exhausted at residual {norm:.3e}",
        best_t1=t, history=history)
