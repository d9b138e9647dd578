"""The package's one damped Newton iteration, for the surface equation at
fixed alpha and, bordered by an arclength row, as the pseudo-arclength
corrector.

The unknown is the vector a of cosine coefficients of an even trace, so
every iterate is even by construction; an iterate's trace is
values_from_cosine(a).  Every Newton step is one solve of the bordered system
    [J  b      ] [da    ]     [R    ]
    [c  c_alpha] [dalpha] = - [n_val]
(Keller's bordered Newton), b the cosine coefficients of dR/dalpha.  The
corrector's last row is the arclength constraint; a fixed-alpha solve pins
alpha with c = 0, c_alpha = 1, n_val = 0, which gives dalpha = 0 exactly.
The bordered system is solved by LU of the dense collocation matrix
(deterministic, default for N <= DENSE_MAX_N = 512) or by right-
preconditioned restarted GMRES on the same operator, matrix-free
(krylov_solve).  The dense matrix is assembled from the spectra of the
linearization's pointwise coefficients, with no transform of basis traces.
The GMRES preconditioner inverts J's whole principal symbol
(c - a2 H) dtn, H the periodic Hilbert transform, with its coefficients
frozen pointwise: (c + a2 H) / (c^2 + a2^2) in x-space, then the
uniform-stream multiplier; GMRES gives up after KRYLOV_MAXITER restart
cycles, so a stagnating solve fails fast.

Each iterate, the initial one and every damped candidate, is one
SurfaceState, which gives both its lambda and its residual; an accepted
candidate's state is handed to the dense assembly, the preconditioner and
every GMRES matvec, so none of them re-derives the base fields of the
iterate, and the converged state gives the solution's residual.

SciPy is imported by the first dense step: scipy.linalg, for its LU.  A
Krylov step loads no SciPy, and importing this module loads none, so
neither does a process that only reads solutions (diagnose, ode).  The
names lu_factor, lu_solve and gmres resolve through the module __getattr__
to SciPy's own functions, and the dense step looks them up on the module at
every call, so a rebinding of newton.lu_factor is honoured.
"""
from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import Grid, Params, ValidationError, WaveSolution, amplitude_of, tail_of
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
DENSE_MAX_N = 512          # linear_solver="auto" takes the dense LU up to this N
KRYLOV_RTOL = 1e-10
KRYLOV_MAXITER = 15        # GMRES restart cycles
KRYLOV_RESTART = 20        # inner iterations per cycle

# SciPy solver -> the submodule that defines it, imported on first access.
# No package code calls gmres any more (the Krylov step is krylov_solve);
# the name stays because the benchmark's tracer wraps newton.gmres, through
# getattr, when a traced run starts.
_SCIPY_SOLVERS = {"lu_factor": "scipy.linalg", "lu_solve": "scipy.linalg",
                  "gmres": "scipy.sparse.linalg"}
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
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValidationError("tol", "must be finite and > 0")
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
    coefficients: c_edge (c + a2 H) / max(c^2 + a2^2, (1e-3 c_edge)^2) in
    x-space, H the periodic Hilbert transform, then the symbol
    1/max(|m(k)|, floor).

    c = a1 + a3 a4 = -2 stag (1 + w1y) is J's coefficient of |k| at high
    wavenumbers, and a2 ddx = -a2 H dtn has the same order, so the principal
    part is (c - a2 H) dtn; since H^2 = -1, (c + a2 H) / (c^2 + a2^2) inverts
    its first factor where the coefficients are frozen.  At gamma = 0,
    c + i a2 = -2 stag (1 + w1y + i w1x).  c is c_edge = -2 (1 + eps1) where
    the wave has decayed, and c^2 + a2^2 shrinks at the crest as stag -> 0;
    it is floored at (1e-3 c_edge)^2 where stag vanishes, and |m(k)| at
    1e-3 (1 + eps1) near the bifurcation threshold.  H acts on the trace
    before the division; it is -i sign k on the modes, mean and Nyquist
    zeroed, and its image comes out of the same stacked inverse transform
    as the trace, so one application costs one inverse transform of two
    rows and one forward transform.
    """
    p, g = state.params, state.grid
    _, a1, a2, a3, a4 = state.coefficients
    floor = 1e-3 * (1.0 + p.eps1)
    symbol = 1.0 / np.maximum(np.abs(linear_multiplier(g.wavenumbers, p)), floor)
    c = a1 + a3 * a4
    c_edge = -2.0 * (1.0 + p.eps1)
    scale = c_edge / np.maximum(c * c + a2 * a2, (1e-3 * c_edge) ** 2)
    left, right = scale * c, scale * a2
    hilbert = np.full(g.n_modes, -1j)
    hilbert[0] = hilbert[-1] = 0.0

    def precondition(a):
        spectrum = a / g.cosine_weights
        u, hu = np.fft.irfft(np.stack([spectrum, hilbert * spectrum]), n=g.n_points, axis=-1)
        return symbol * cosine_coefficients(left * u + right * hu, g)

    return precondition


def krylov_solve(apply, precondition, rhs: np.ndarray):
    """Right-preconditioned restarted GMRES for A x = rhs, A = apply and
    M = precondition: x = M y, y minimizing ||rhs - A M y|| over the Krylov
    space of A M, so the minimized residual is A's own.  Returns x once
    ||rhs - A x|| <= KRYLOV_RTOL ||rhs||, or None if KRYLOV_MAXITER cycles
    of at most KRYLOV_RESTART steps do not get there.

    Arnoldi orthogonalizes by classical Gram-Schmidt applied twice, each
    pass one product with the basis block; the Givens rotations that reduce
    the Hessenberg matrix run on Python floats.  A cycle stops early when
    the rotated residual estimate meets the tolerance, and every cycle ends
    with the true residual, which confirms it or starts the next cycle.  A
    cycle keeps its basis and its preconditioned directions, so x needs no
    further application of M and memory is O(KRYLOV_RESTART) vectors.
    """
    r, beta = rhs, float(np.linalg.norm(rhs))
    target = KRYLOV_RTOL * beta
    x = np.zeros(rhs.size)
    basis = np.empty((KRYLOV_RESTART + 1, rhs.size))
    directions = np.empty((KRYLOV_RESTART, rhs.size))
    for _ in range(KRYLOV_MAXITER):
        if beta <= target or not math.isfinite(beta):
            break
        basis[0] = r / beta
        rotations, columns, e = [], [], [beta]
        for j in range(KRYLOV_RESTART):
            directions[j] = precondition(basis[j])
            w = apply(directions[j])
            head = basis[:j + 1]
            h = head @ w
            w = w - h @ head
            again = head @ w
            w -= again @ head
            col = (h + again).tolist()
            w_norm = float(np.linalg.norm(w))
            for i, (cs, sn) in enumerate(rotations):
                col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
            diag = math.hypot(col[j], w_norm)
            if not diag > 0:
                break                 # A M is singular on this Krylov space
            cs, sn = col[j] / diag, w_norm / diag
            col[j] = diag
            rotations.append((cs, sn))
            columns.append(col)
            e[j], e_next = cs * e[j], -sn * e[j]
            e.append(e_next)
            if abs(e_next) <= target or w_norm == 0.0:
                break
            basis[j + 1] = w / w_norm
        k = len(columns)
        y = [0.0] * k                 # R y = e by back substitution
        for i in reversed(range(k)):
            y[i] = (e[i] - sum(columns[l][i] * y[l] for l in range(i + 1, k))) / columns[i][i]
        x = x + np.asarray(y) @ directions[:k]
        r = rhs - apply(x)
        beta = float(np.linalg.norm(r))
    return x if beta <= target else None


def _use_dense(cfg: NewtonConfig, g: Grid) -> bool:
    if cfg.linear_solver == "auto":
        return g.n_points <= DENSE_MAX_N
    return cfg.linear_solver == "dense"


def _bordered_solver(state: SurfaceState, c: np.ndarray, c_alpha: float,
                     cfg: NewtonConfig):
    """The linear step (r, n_val) -> (da, dalpha) of the bordered system
    [J b; c c_alpha] at state, b the cosine coefficients of the state's
    dR/dalpha and da those of the trace correction.

    Dense: one LU of the (M+1, M+1) matrix, reused by every call; J is
    written into its top-left block by dense_jacobian and the LU overwrites
    it.  Krylov: each call is one krylov_solve, matrix-free, so memory
    stays O(N), of at most KRYLOV_MAXITER restart cycles; every matvec is
    one jacobian_apply on a trace, and the right preconditioner is
    _preconditioner on the modes, passing the last (alpha) entry unchanged.  The bordered operator stays
    invertible at an alpha fold, where J is singular.
    """
    p, g = state.params, state.grid
    m = g.n_modes
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

        def apply(x):
            jx = cosine_coefficients(
                jacobian_apply(state, values_from_cosine(x[:m], g), p, g), g)
            return np.append(jx + b * x[m], c @ x[:m] + c_alpha * x[m])

        def solve(rhs):
            sol = krylov_solve(apply, lambda y: np.append(precondition(y[:m]), y[m]), rhs)
            if sol is None:
                raise SingularLinearSolve(
                    f"preconditioned GMRES did not converge in {KRYLOV_MAXITER} cycles")
            return sol

    def step(r, n_val):
        delta = solve(-np.append(cosine_coefficients(r, g), n_val))
        if not np.all(np.isfinite(delta)):
            raise SingularLinearSolve("bordered solve produced a non-finite update")
        return delta[:m], float(delta[m])

    return step


def solve_newton_step(t1_or_state, r: np.ndarray, p: Params, g: Grid,
                      cfg: NewtonConfig):
    """One fixed-alpha Newton step at a trace or at a SurfaceState (one
    state serves every matvec): the correction trace dt of J dt = -r, solved
    as the bordered system whose last row pins alpha (c = 0, c_alpha = 1,
    n_val = 0), so its dalpha is exactly 0."""
    state = SurfaceState.of(t1_or_state, p, g)
    da, _ = _bordered_solver(state, np.zeros(g.n_modes), 1.0, cfg)(r, 0.0)
    return values_from_cosine(da, g)


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

    The unknowns are the cosine coefficients a of the trace, so every
    iterate is even, and alpha, held by the row
    <c, a - a0> + c_alpha (alpha - alpha0) = 0 through the initial point a0,
    the coefficients of t1_init's even part; the merit is max(|R|, |row|).
    Without a tangent the row is pinned, c = 0 and c_alpha = 1, so alpha
    stays fixed.  Candidates with stag <= 0 on the surface,
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
    a0 = a = cosine_coefficients(t1_init, g)
    try:
        state = SurfaceState(values_from_cosine(a, g), p, g)
    except NonFiniteTrace:
        state = None            # a non-finite iterate, whose lambda is nan
    if state is None or not _iterate_lambda(state) > 0:
        raise LeftAdmissibleSet("initial iterate has lambda <= 0")
    if _past_stagnation(state):
        raise LeftAdmissibleSet("initial iterate has stag <= 0 on the surface")
    c, c_alpha = (np.zeros(g.n_modes), 1.0) if tangent is None else tangent
    alpha0 = p.alpha
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
        da, d_alpha = step_of(state.residual, n_val)
        last_norm = norm

        step = 1.0
        accepted = saw_admissible = False
        while step >= MIN_STEP:
            alpha = p.alpha + step * d_alpha
            try:
                a_c = a + step * da
                cand = values_from_cosine(a_c, g)
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
            n_c = float(c @ (a_c - a0) + c_alpha * (alpha - alpha0))
            normc = max(float(np.max(np.abs(state_c.residual))), abs(n_c))
            if normc < norm:
                a, p, state, n_val, norm = a_c, p_c, state_c, n_c, normc
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
            f"damping stalled at residual {norm:.3e}", best_t1=state.t1,
            history=history)

    if norm <= cfg.tol:
        return build_solution(state, p, g, cfg.tol, history)
    raise NoConvergence(
        f"iteration budget exhausted at residual {norm:.3e}",
        best_t1=state.t1, history=history)
