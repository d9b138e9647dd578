import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import lu_factor
from scipy.optimize import brentq

from ehdsolitary.conjugate import _EQ_TOL, _depth_coefficients
from ehdsolitary.diagnostics import _flow_force_spectra, _flow_force_stations
from ehdsolitary.model import BaseParams, Grid, Params, make_params, reflect
from ehdsolitary.reduced_ode import OdeParams, _rk4_step
from ehdsolitary.spectral import (_apply_multiplier, _check_height, _check_trace,
                                  _cosh_ratio, _sinh_ratio, cosine_coefficients,
                                  ddx, dtn)
from ehdsolitary.system import (INTERIOR_LEVELS, SurfaceState, _require_finite,
                                eliminated_t2, jacobian_apply)


def symmetrize(values: np.ndarray) -> np.ndarray:
    """Project a trace onto its even part about x = 0."""
    return 0.5 * (values + reflect(values))


def random_even_trace(g, rng, n_modes=12, scale=1.0, decay=0.5):
    """Smooth random even trace built from low cosine modes."""
    coeffs = scale * rng.standard_normal(n_modes) * decay ** np.arange(n_modes)
    t = np.zeros(g.n_points)
    for n, c in enumerate(coeffs):
        t += c * np.cos(g.wavenumbers[n] * g.x)
    return t


def count_transforms(monkeypatch, names=("rfft", "irfft")):
    """Counter of calls of the numpy.fft functions names (rfft and irfft by
    default) from now on, keyed by function name; counts only functions that
    were called."""
    calls = {}
    for name in names:
        original = getattr(np.fft, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


def eval_interior_dy(t, g, y):
    """y-derivative of the harmonic extension sampled at height y in [0, 1].

    Multiplier k cosh(k y)/sinh(k); mode 0 maps to the constant 1 times the
    trace mean.  At y = 1 this coincides with dtn exactly.
    """
    y = _check_height(y)
    return _apply_multiplier(_check_trace(t, g), _cosh_ratio(g.wavenumbers, y))


def harmonic_fields(t, g, ys):
    """The harmonic extension w of t and its derivatives w_x, w_y at each
    height y of ys in [0, 1], each of shape (len(ys),) + t.shape, from one
    forward and one inverse transform, with the sinh and cosh ratios built
    fresh at every height: the direct evaluation that
    SurfaceState.level_fields reads from its cached spectrum and the grid's
    cached symbols.

    t may be a batch of traces on its leading axes.  The row at y = 1 is
    exactly t, ddx(t) and dtn(t).
    """
    t = _check_trace(t, g)
    ys = [_check_height(y) for y in ys]
    k = g.wavenumbers
    shape = (len(ys),) + (1,) * (t.ndim - 1) + (g.n_modes,)
    sinh = np.reshape([_sinh_ratio(k, y) for y in ys], shape)
    cosh = np.reshape([g.dtn_symbol if y == 1.0 else _cosh_ratio(k, y) for y in ys],
                      shape)
    c = np.fft.rfft(t, axis=-1)
    w, w_x, w_y = np.fft.irfft(np.stack([c * sinh, c * g.ddx_symbol * sinh, c * cosh]),
                               n=g.n_points, axis=-1)
    w[np.equal(ys, 1.0)] = t
    return w, w_x, w_y


def homoclinic_exact(x, p: OdeParams):
    """Closed-form localized orbit q0 sech^2(sqrt(3) x / 2) of the scaled
    equation; even in x with maximum q0 at x = 0."""
    x = np.asarray(x, dtype=float)
    val = p.q0 / np.cosh(0.5 * np.sqrt(3.0) * x) ** 2
    return float(val) if val.ndim == 0 else val


def homoclinic_slope(x, p):
    """Derivative of the closed-form orbit q0 sech^2(sqrt(3) x / 2)."""
    x = np.asarray(x, dtype=float)
    u = 0.5 * np.sqrt(3.0) * x
    val = -np.sqrt(3.0) * p.q0 * np.tanh(u) / np.cosh(u) ** 2
    return float(val) if val.ndim == 0 else val


def closed_orbit_return(q0, p, dt=1e-3, max_steps=200_000):
    """Distance to the launch point (q0, 0) at the first full revolution,
    or None if no return is detected within the budget.

    The crossing of P through zero is refined by bisection on the integrated
    flow, so the returned closure error reflects the integrator, not the
    sampling stride.
    """
    q, v = float(q0), 0.0
    crossings = 0
    for _ in range(max_steps):
        qn, vn = _rk4_step(q, v, dt, p)
        if abs(qn) > 10.0 * p.q0:
            return None
        if v != 0.0 and np.sign(vn) != np.sign(v) and vn != 0.0:
            # refine the crossing time by bisection on the sub-step
            lo, hi = 0.0, dt
            ql, vl = q, v
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                qm, vm = _rk4_step(q, v, mid, p)
                if np.sign(vm) == np.sign(vl) and vm != 0.0:
                    lo = mid
                    ql, vl = qm, vm
                else:
                    hi = mid
            crossings += 1
            if crossings == 2:
                return float(np.hypot(ql - q0, vl))
        q, v = qn, vn
    return None


def a5_cube_sample(n: int, seed: int, depth: bool = False) -> list:
    """n Params from the A5 cube: gamma in [-0.9, 0.9], eps1 in [0, 2],
    alpha in [0.05, 3], at least 0.02 away from alpha_cr.  With depth, each
    comes as (p, d) with a depth d in [0.2, 5] drawn right after it."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        p = make_params(*rng.uniform((-0.9, 0.0, 0.05), (0.9, 2.0, 3.0)))
        if abs(p.alpha - p.alpha_cr) >= 0.02:
            out.append((p, rng.uniform(0.2, 5.0)) if depth else p)
    return out


def qhat_prime(d: float, p: Params):
    d = np.asarray(d, dtype=float)
    a = 0.5 * (2.0 - p.gamma)
    b = 0.5 * p.gamma
    # d/dd of (a/d + b d)^2 + eps1/d^2 + 2 alpha (d - 1)
    val = (2.0 * (a / d + b * d) * (-a / (d * d) + b)
           - 2.0 * p.eps1 / d ** 3 + 2.0 * p.alpha)
    return float(val) if val.ndim == 0 else val


def qhat_second(d: float, p: Params):
    """Closed-form second derivative 3(2-gamma)^2/(2 d^4) + gamma^2/2 + 6 eps1/d^4,
    strictly positive for every admissible parameter set."""
    d = np.asarray(d, dtype=float)
    val = 1.5 * (2.0 - p.gamma) ** 2 / d ** 4 + 0.5 * p.gamma ** 2 + 6.0 * p.eps1 / d ** 4
    return float(val) if val.ndim == 0 else val


def reference_dcr(p: Params) -> float:
    """Critical depth by brentq on its closed-form bracket: the oracle for
    conjugate.find_dcr."""
    A, b2 = _depth_coefficients(p)
    return float(brentq(lambda d: b2 * d ** 4 + p.alpha * d ** 3 - A,
                        0.0, 1.0 + A / p.alpha, xtol=1e-14, rtol=8.9e-16))


def reference_dstar(p: Params):
    """Conjugate depth by brentq on its closed-form bracket, None at the
    critical speed: the oracle for conjugate.find_dstar."""
    A, b2 = _depth_coefficients(p)
    if abs(p.alpha - p.alpha_cr) < _EQ_TOL:
        return None
    lo, hi = (1.0, 1.0 + A / p.alpha) if p.alpha < p.alpha_cr else (0.0, 1.0)
    return float(brentq(lambda d: ((b2 * d + b2 + 2.0 * p.alpha) * d - A) * d - A,
                        lo, hi, xtol=1e-14, rtol=8.9e-16))


# Residual, linearization and alpha derivative as each re-derives the base
# state from the trace: the oracles for SurfaceState.
def reference_residual(t1: np.ndarray, p: Params, g: Grid) -> np.ndarray:
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


def reference_jacobian_apply(t1: np.ndarray, dt: np.ndarray, p: Params, g: Grid) -> np.ndarray:
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


def reference_lambda_min(t1: np.ndarray, p: Params, g: Grid) -> float:
    """Admissibility quantity: inf of 4 (1 + eps1 - 2 alpha w1)^2 |grad eta|^2
    sampled on the surface and at the INTERIOR_LEVELS heights, from one
    harmonic_fields evaluation: the oracle for SurfaceState.lambda_min and
    system.lambda_min."""
    w1, w1x, w1y = harmonic_fields(t1, g, (1.0,) + INTERIOR_LEVELS)
    val = 4.0 * (1.0 + p.eps1 - 2.0 * p.alpha * w1) ** 2 * (w1x ** 2 + (1.0 + w1y) ** 2)
    return float(np.min(val))


def crest_state(g, gamma, eps1, height=0.3, alpha_ratio=0.8):
    """SurfaceState of the even trace height sech^2(x / 2) plus a ripple, at
    alpha = alpha_ratio * alpha_cr."""
    t1 = height / np.cosh(0.5 * g.x) ** 2 * (1.0 + 0.1 * np.cos(3.0 * g.x))
    p = make_params(gamma, eps1, alpha_ratio * BaseParams(gamma, eps1).alpha_cr)
    return SurfaceState(t1, p, g)


def cosine_basis(g: Grid) -> np.ndarray:
    """Matrix B with row n the sampled basis trace cos(k_n x), shape (M, N)."""
    return np.cos(np.outer(g.wavenumbers, g.x))


def reference_dense_jacobian(t1_or_state, p: Params, g: Grid) -> np.ndarray:
    """Collocation Jacobian in the cosine basis, column by column from the
    directional derivatives on the basis traces (one batched application):
    the oracle for newton.dense_jacobian."""
    return cosine_coefficients(jacobian_apply(t1_or_state, cosine_basis(g), p, g), g).T


def blockwise_bordered_lu(state: SurfaceState, b, c, c_alpha):
    """LU factors of the bordered matrix [J b; c c_alpha] at state, with J
    summed term by term out of place in C order, the matrix joined by
    np.block and factored by lu_factor on a copy: the bit-for-bit oracle of
    the in-place dense step of newton."""
    p, g = state.params, state.grid
    m, n = g.n_modes, g.n_points
    spec = np.fft.rfft(np.stack(state.coefficients), axis=-1) * np.sign(g.cosine_weights)
    j = (np.arange(3 * m - 2) - (m - 1)) % n
    ext = spec[:, np.minimum(j, n - j)]
    even = ext.real
    odd = ext.imag[2] * np.where(j <= n // 2, 1.0, -1.0)
    toeplitz = lambda v: sliding_window_view(v[:2 * m - 1], m)[:, ::-1]
    hankel = lambda v: sliding_window_view(v[m - 1:], m)
    product = lambda v: toeplitz(v) + hankel(v)
    half_w = 0.5 * np.abs(g.cosine_weights)[:, None]
    mu = g.dtn_symbol
    jac = (product(even[0]) + product(even[1]) * mu
           + (hankel(odd) - toeplitz(odd)) * g.ddx_symbol.imag)
    jac *= half_w
    if p.gamma != 0.0:
        jac += (half_w * product(even[3])) @ (half_w * mu[:, None] * product(even[4]))
    big = np.block([[jac, b[:, None]], [c[None, :], np.array([[c_alpha]])]])
    return lu_factor(big)


def reference_alpha_derivative(t1: np.ndarray, p: Params, g: Grid) -> np.ndarray:
    """Partial derivative of the Bernoulli residual with respect to alpha."""
    t1 = np.asarray(t1, dtype=float)
    w1x = ddx(t1, g)
    w1y = dtn(t1, g)
    return 2.0 * t1 * (w1x * w1x + (1.0 + w1y) ** 2)


def flow_force_all_stations(sol, pad: int) -> np.ndarray:
    """Flow force at every station, with the integral over the strip height
    in closed form, from the integrand on a pad-times zero-padded grid: the
    direct evaluation that flow_force_profile's fold must reproduce."""
    bottom, surface = _flow_force_spectra(sol, pad)
    bottom += surface[:len(bottom)]
    return _flow_force_stations(sol, bottom, pad)


def reference_flow_force(sol, n_nodes):
    """Flow force evaluated at every collocation station by Gauss-Legendre
    quadrature over the strip height, from one transform of (t1, t2) per
    node: the oracle for the closed form in diagnostics."""
    p, g, t1 = sol.params, sol.grid, sol.t1
    t12 = np.stack([t1, eliminated_t2(t1, p)])
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    ys = 0.5 * (nodes + 1.0)            # map to (0, 1)
    ws = 0.5 * weights

    total = np.zeros(g.n_points)
    # one node at a time: stacking all nodes would hold 3 n_nodes (2, N) fields
    for w, y in zip(ws, ys):
        _, (wx,), (wy,) = harmonic_fields(t12, g, (y,))
        eta_x, zeta_x = wx
        eta_y, zeta_y = 1.0 + wy[0], (1.0 - p.gamma) + wy[1]
        gradsq = eta_x ** 2 + eta_y ** 2
        hydro = (eta_y * (zeta_y ** 2 - zeta_x ** 2)
                 + 2.0 * eta_x * zeta_x * zeta_y) / gradsq
        electric = eta_y / gradsq       # potential is exactly the height coordinate
        total += w * (0.5 * hydro + 0.5 * p.eps1 * electric)

    eta_surface = 1.0 + t1
    boundary = (p.gamma ** 2 / 6.0 * eta_surface ** 3
                + 0.5 * p.alpha * eta_surface ** 2
                - 0.5 * (2.0 * p.alpha + 1.0 + p.eps1) * eta_surface)
    return total - boundary
