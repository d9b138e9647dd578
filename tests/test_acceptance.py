"""Acceptance suite: one test per criterion, each printing a pass/fail line
(visible with -s; the -v test status is the per-criterion verdict).

Run:  pytest tests/test_acceptance.py -v -s
"""
import numpy as np
import pytest

from ehdsolitary import (
    BaseParams,
    ContinuationConfig,
    NewtonConfig,
    OdeParams,
    bore_verdict,
    classify_stop,
    continue_branch,
    dispersion_root,
    flow_force_profile,
    flux_identity_check,
    homoclinic_exact,
    init_small,
    integrate_orbit,
    jacobian_apply,
    linear_multiplier,
    make_grid,
    make_params,
    newton_solve,
    nodal_check,
    phase_portrait,
    qhat,
    qhat_second,
    residual,
    shat,
    trivial_flow_force,
)
from ehdsolitary.cli import _auto_half_length
from ehdsolitary.continuation import (
    _mode_tail_fraction,
    admissible_triggers,
    small_amplitude_coefficients,
)
from ehdsolitary.newton import build_solution
from ehdsolitary.reduced_ode import homoclinic_slope
from ehdsolitary.spectral import dtn, dtn_multiplier

from helpers import random_even_trace
from three_component import newton_solve_three_component


def report(criterion: str, passed: bool, detail: str = ""):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}"
          + (f": {detail}" if detail else ""))
    assert passed, f"{criterion} failed: {detail}"


PARAM_5CUBE = [(g, e, a)
               for g in (-0.6, -0.25, 0.0, 0.35, 0.7)
               for e in (0.0, 0.25, 0.5, 1.0, 2.0)
               for a in (0.2, 0.7, 1.0, 1.6, 2.4)]


# ---------------------------------------------------------------- A1
def test_a1_trivial_consistency():
    """residual(0) == 0 and flow force of the uniform stream equals
    gamma^2/3 - gamma + alpha/2 + 1 + eps1 to 1e-12 on a 5x5x5 grid."""
    g = make_grid(20.0, 32)
    worst_r, worst_s = 0.0, 0.0
    for gamma, eps1, alpha in PARAM_5CUBE:
        p = make_params(gamma, eps1, alpha)
        worst_r = max(worst_r, float(np.max(np.abs(residual(np.zeros(32), p, g)))))
        sol = build_solution(np.zeros(32), p, g, 1e-15)
        s = flow_force_profile(sol, check=False)
        expected = trivial_flow_force(p)
        worst_s = max(worst_s, float(np.max(np.abs(s - expected))))
    report("A1 trivial consistency", worst_r == 0.0 and worst_s < 1e-12,
           f"max residual {worst_r:.1e}, max flow-force error {worst_s:.1e}")


# ---------------------------------------------------------------- A2
def test_a2_dispersion_linearization():
    """Jacobian action at the uniform stream reproduces the multiplier
    2((gamma+alpha) - (1+eps1) k coth k) to 1e-12; root structure matches the
    subcritical/supercritical regime."""
    g = make_grid(8.0, 64)
    worst = 0.0
    for gamma, eps1, alpha in ((0.0, 0.5, 1.0), (0.3, 0.2, 0.8), (-0.4, 1.0, 2.0)):
        p = make_params(gamma, eps1, alpha)
        for n in (0, 1, 3, 9, 20, 32):
            k = g.wavenumbers[n]
            dt = np.cos(k * g.x)
            out = jacobian_apply(np.zeros(64), dt, p, g)
            m_exact = 2.0 * ((gamma + alpha) - (1.0 + eps1) * k / np.tanh(k)) \
                if k > 0 else 2.0 * (gamma + alpha - (1.0 + eps1))
            worst = max(worst, float(np.max(np.abs(out - m_exact * dt))))
    roots_ok = True
    for gamma, eps1, alpha in PARAM_5CUBE:
        p = make_params(gamma, eps1, alpha)
        if abs(p.alpha - p.alpha_cr) < 1e-9:
            continue
        root = dispersion_root(p)
        if p.alpha < p.alpha_cr:
            roots_ok &= root is None
        else:
            roots_ok &= root is not None and root > 0 \
                and abs(linear_multiplier(root, p)) < 1e-10
    report("A2 dispersion/linearization", worst < 1e-12 and roots_ok,
           f"max multiplier error {worst:.1e}, root structure ok={roots_ok}")


# ---------------------------------------------------------------- A3
A3_CELLS = [(gamma, eps1) for gamma in (-0.3, 0.0, 0.4) for eps1 in (0.0, 0.5)]
A3_EPS = (0.04, 0.02, 0.01, 0.005)


def _a3_gaps(gamma, eps1, profile):
    """Sup-norm gaps between converged solutions and a reference profile."""
    base = BaseParams(gamma, eps1)
    gaps = []
    for eps in A3_EPS:
        g = make_grid(_auto_half_length(eps, eps1), 1024)
        t_init, p = init_small(eps, base, g)
        sol = newton_solve(t_init, p, g, NewtonConfig())
        gaps.append(float(np.max(np.abs(sol.t1 - profile(eps, base, g)))))
    return np.array(gaps)


def _initializer_profile(eps, base, g):
    return init_small(eps, base, g)[0]


def _uncorrected_expansion_profile(eps, base, g):
    # the expansion with the permittivity mishandled in the corrector solve:
    # eps1 instead of 3 eps1 in the prefactor denominator and no 1/(1+eps1)
    # factor in the decay rate; coincides with the corrected one at eps1 = 0
    denom = 3.0 - 3.0 * base.gamma + base.gamma ** 2 + base.eps1
    return (3.0 * eps / denom) / np.cosh(0.5 * np.sqrt(3.0 * eps) * g.x) ** 2


@pytest.mark.parametrize("gamma,eps1", A3_CELLS)
def test_a3_small_amplitude_order(gamma, eps1):
    """Gap to the small-amplitude profile shrinks at empirical order >= 1.8
    under eps halvings (the asymptotic family realized by init_small)."""
    gaps = _a3_gaps(gamma, eps1, _initializer_profile)
    slopes = np.log2(gaps[:-1] / gaps[1:])
    ok = bool(np.all(slopes >= 1.8))
    report(f"A3 expansion order (gamma={gamma}, eps1={eps1})", ok,
           f"slopes {np.round(slopes, 3).tolist()}")


A3_CELLS_UNCORRECTED = [
    pytest.param(gamma, eps1,
                 marks=pytest.mark.xfail(
                     strict=True,
                     reason="the uncorrected expansion is first-order "
                            "accurate only when eps1 > 0"))
    if eps1 > 0 else (gamma, eps1)
    for gamma, eps1 in A3_CELLS
]


@pytest.mark.parametrize("gamma,eps1", A3_CELLS_UNCORRECTED)
def test_a3_uncorrected_expansion_gap_order(gamma, eps1):
    """The same measurement against the uncorrected expansion.  The eps1 > 0
    cells are strict expected failures: the measurement runs and its slope
    (~1 instead of >= 2) is recorded; if it ever reached second order the
    suite would flag the surprise."""
    gaps = _a3_gaps(gamma, eps1, _uncorrected_expansion_profile)
    slopes = np.log2(gaps[:-1] / gaps[1:])
    ok = bool(np.all(slopes >= 1.8))
    report(f"A3 uncorrected-expansion order (gamma={gamma}, eps1={eps1})", ok,
           f"slopes {np.round(slopes, 3).tolist()}")


# ---------------------------------------------------------------- A4
A4_WAVES = [(0.0, 0.5, 0.01), (0.4, 0.5, 0.02), (-0.3, 0.0, 0.02),
            (0.3, 0.4, 0.04)]


@pytest.mark.parametrize("gamma,eps1,eps", A4_WAVES)
def test_a4_flow_force_invariance(gamma, eps1, eps):
    """Relative flow-force spread over 9 stations below 1e-6 at solver
    tolerance 1e-11 with 32-node quadrature."""
    base = BaseParams(gamma, eps1)
    g = make_grid(_auto_half_length(eps, eps1), 1024)
    t0, p = init_small(eps, base, g)
    sol = newton_solve(t0, p, g, NewtonConfig(tol=1e-11))
    s = flow_force_profile(sol, n_nodes=32, check=True)
    idx = np.linspace(0, g.n_points - 1, 9).astype(int)
    ref = s[g.n_points // 2]
    spread = float(np.max(np.abs(s[idx] - ref)) / abs(ref))
    report(f"A4 flow-force invariance (gamma={gamma}, eps1={eps1})",
           spread < 1e-6, f"relative spread {spread:.2e}")


# ---------------------------------------------------------------- A5 / A6
def _conjugate_samples(n=100, seed=20240809):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        gamma = rng.uniform(-0.9, 0.9)
        eps1 = rng.uniform(0.0, 2.0)
        alpha = rng.uniform(0.05, 3.0)
        p = make_params(gamma, eps1, alpha)
        if abs(alpha - p.alpha_cr) < 0.02:
            continue              # numerically distinct from the tangency
        d = rng.uniform(0.2, 5.0)
        out.append((p, d))
    return out


def test_a5_conjugate_flow_identities():
    """Derivative identity S'(d) = (Q(1) - Q(d))/2 to 1e-8 (centered
    differences, step 1e-6), closed-form convexity to 1e-6, and the flow-force
    gap sign matching sign(alpha_cr - alpha), on 100 seeded random samples."""
    h = 1e-6
    worst_d, worst_c = 0.0, 0.0
    signs_ok = True
    for p, d in _conjugate_samples():
        fd = (shat(d + h, p) - shat(d - h, p)) / (2.0 * h)
        worst_d = max(worst_d, abs(fd - 0.5 * (qhat(1.0, p) - qhat(d, p))))
        h2 = 1e-4
        fd2 = (qhat(d - h2, p) - 2.0 * qhat(d, p) + qhat(d + h2, p)) / h2 ** 2
        worst_c = max(worst_c, abs(fd2 - qhat_second(d, p))
                      / max(abs(qhat_second(d, p)), 1.0))
        rep = bore_verdict(p)
        signs_ok &= rep.d_star is not None and \
            np.sign(rep.shat_at_star - rep.shat_at_1) == np.sign(p.alpha_cr - p.alpha)
    report("A5 conjugate-flow identities",
           worst_d < 1e-8 and worst_c < 1e-6 and signs_ok,
           f"derivative gap {worst_d:.1e}, convexity gap {worst_c:.1e}, "
           f"signs ok={signs_ok}")


def test_a6_no_bore_corroboration():
    """bore_excluded on the full A5 sample set."""
    ok = all(bore_verdict(p).bore_excluded for p, _ in _conjugate_samples())
    report("A6 no-bore corroboration", ok)


# ---------------------------------------------------------------- A7/A8/A11
@pytest.fixture(scope="module")
def default_branch():
    base = BaseParams(0.0, 0.5)
    g = make_grid(_auto_half_length(1e-3, 0.5), 1024)
    branch = continue_branch(base, g, ContinuationConfig())
    return branch, base


def test_a7_froude_bound_and_flux_identity(default_branch):
    """Every accepted branch point is subcritical; the integral flux identity
    balances within max(1e-4, 10 tail) with a positive advective moment."""
    branch, base = default_branch
    froude_ok = all(pt.alpha < base.alpha_cr for pt in branch.points)
    worst_gap, adv_ok = 0.0, True
    for sol in branch.solutions:
        repflux = flux_identity_check(sol)
        budget = max(1e-4, 10.0 * sol.tail)
        worst_gap = max(worst_gap, repflux.rel_gap / budget)
        adv_ok &= repflux.advective > 0
    report("A7 Froude bound + flux identity",
           froude_ok and worst_gap < 1.0 and adv_ok,
           f"subcritical={froude_ok}, worst gap/budget {worst_gap:.2e}, "
           f"advective positive={adv_ok}")


def test_a8_nodal_property_along_branch(default_branch):
    """Strict surface decrease away from the crest, on the surface and three
    interior heights, at every accepted branch point."""
    branch, _ = default_branch
    bad = [i for i, sol in enumerate(branch.solutions)
           if not nodal_check(sol, tail_floor=1e-8).passed]
    report("A8 nodal property along branch", not bad,
           f"{len(branch.solutions)} points checked"
           + (f", violations at {bad}" if bad else ""))


def test_a11_end_to_end_branch(default_branch):
    """Default run (gamma=0, eps1=0.5): at least 50 accepted points with
    strictly increasing amplitude and a classified stop reason."""
    branch, base = default_branch
    amps = [pt.amplitude for pt in branch.points]
    monotone = all(b > a for a, b in zip(amps, amps[1:]))
    n_ok = len(branch.points) >= 50
    stop = branch.stop_reason
    rep = classify_stop(branch, base.with_alpha(branch.points[-1].alpha))
    if stop in ("BUDGET", "STEP_FAILURE"):
        stop_ok = bool(branch.note) or stop == "BUDGET"
        flagged = not rep.discrepancy
    else:
        stop_ok = stop in admissible_triggers(base.gamma)
        flagged = rep.admissible and not rep.discrepancy
    report("A11 end-to-end branch run",
           n_ok and monotone and stop_ok and flagged,
           f"{len(branch.points)} points, stop={stop}"
           + (f" ({branch.note})" if branch.note else "")
           + f", amplitude [{amps[0]:.2e} .. {amps[-1]:.3f}]")


@pytest.mark.xfail(
    strict=True,
    reason="once refining would pass n_max the branch accepts points whose "
           "cosine spectrum fails mode_tail_tol (points 47-50 of the default "
           "branch); see ROADMAP item 3")
def test_accepted_points_meet_mode_tail(default_branch):
    """Every accepted point of the default branch meets the spectral-tail
    part of the adequacy contract."""
    branch, _ = default_branch
    tol = ContinuationConfig().mode_tail_tol
    bad = {i: _mode_tail_fraction(sol.t1, sol.grid)
           for i, sol in enumerate(branch.solutions)
           if _mode_tail_fraction(sol.t1, sol.grid) > tol}
    assert not bad, f"mode tail above {tol:.0e} at {bad}"


# ---------------------------------------------------------------- A9
def test_a9_reduced_ode():
    """Closed-form orbit satisfies the scaled equation to 1e-10; RK4 first
    integral drifts below 1e-10 over 1e4 steps at dt=1e-3; separatrix closure
    error below 1e-5; launch topology of the canonical portrait."""
    p = OdeParams(0.0, 0.0)
    xs = np.linspace(-8.0, 8.0, 200)
    u = 0.5 * np.sqrt(3.0) * xs
    q = homoclinic_exact(xs, p)
    qxx = 3.0 * p.q0 * (np.cosh(u) ** 2 - 1.5) / np.cosh(u) ** 4
    ode_res = float(np.max(np.abs(qxx - 3.0 * q + p.c2 * q * q)))

    drift = integrate_orbit(0.5, 0.0, p, 1e-3, 10_000).energy_drift

    orb = integrate_orbit(p.q0, 0.0, p, 1e-3, 12_000)
    closure = float(np.max(np.hypot(orb.q - homoclinic_exact(orb.x, p),
                                    orb.p - homoclinic_slope(orb.x, p))))

    orbits = phase_portrait(p, (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
                            dt=1e-3, x_max=25.0)
    topology = (not orbits[0].escaped) and all(o.escaped for o in orbits[2:])

    report("A9 reduced planar dynamics",
           ode_res < 1e-10 and drift < 1e-10 and closure < 1e-5 and topology,
           f"ODE residual {ode_res:.1e}, drift {drift:.1e}, "
           f"closure {closure:.1e}, topology ok={topology}")


# ---------------------------------------------------------------- A10
def test_a10_operator_oracles():
    """(i) Spectral strip map vs a second-order finite-difference Laplace
    solve: gap shrinking at order ~2 under mesh refinement (meshes 64x32,
    128x64, 256x128 on the box |x| <= 10), Richardson-extrapolated agreement
    below 1e-6 relative.  (ii) Eliminated single-unknown solve vs the full
    three-component solve: t1 within 10 tol, electric trace below tol."""
    from scipy.sparse import lil_matrix
    from scipy.sparse.linalg import spsolve

    L = 10.0

    def fd_dtn(trace, nx, ny):
        hx, hy = 2 * L / nx, 1.0 / ny
        n_unknown = nx * (ny - 1)

        def idx(i, j):
            return (j - 1) * nx + i

        A = lil_matrix((n_unknown, n_unknown))
        rhs = np.zeros(n_unknown)
        for j in range(1, ny):
            for i in range(nx):
                r = idx(i, j)
                A[r, r] = -2.0 / hx ** 2 - 2.0 / hy ** 2
                A[r, idx((i + 1) % nx, j)] += 1.0 / hx ** 2
                A[r, idx((i - 1) % nx, j)] += 1.0 / hx ** 2
                if j + 1 <= ny - 1:
                    A[r, idx(i, j + 1)] += 1.0 / hy ** 2
                else:
                    rhs[r] -= trace[i] / hy ** 2
                if j - 1 >= 1:
                    A[r, idx(i, j - 1)] += 1.0 / hy ** 2
        u = spsolve(A.tocsr(), rhs).reshape(ny - 1, nx)
        return (3.0 * trace - 4.0 * u[-1] + u[-2]) / (2.0 * hy)

    rng = np.random.default_rng(11)
    g_ref = make_grid(L, 256)
    t_ref = random_even_trace(g_ref, rng, n_modes=6, decay=0.4)
    ref = dtn(t_ref, g_ref)
    errs, fd_vals = [], []
    for nx, ny in ((64, 32), (128, 64), (256, 128)):
        step = 256 // nx
        fd = fd_dtn(t_ref[::step], nx, ny)
        errs.append(float(np.max(np.abs(fd - ref[::step]))))
        fd_vals.append(fd)
    orders = [np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])]
    rich = (4.0 * fd_vals[2][::2] - fd_vals[1]) / 3.0
    rel = float(np.max(np.abs(rich - ref[::2])) / np.max(np.abs(ref)))
    laplace_ok = all(o > 1.6 for o in orders) and rel < 1e-6

    base = BaseParams(0.3, 0.4)
    g = make_grid(160.0, 256)
    t0, p = init_small(0.02, base, g)
    cfg = NewtonConfig(tol=1e-11)
    sol = newton_solve(t0, p, g, cfg)
    t1f, t2f, t3f, _ = newton_solve_three_component(t0, p, g, cfg)
    elim_gap = float(np.max(np.abs(t1f - sol.t1)))
    w3_norm = float(np.max(np.abs(t3f)))
    elim_ok = elim_gap <= 10 * cfg.tol and w3_norm <= cfg.tol

    report("A10 operator oracles", laplace_ok and elim_ok,
           f"FD orders {np.round(orders, 2).tolist()}, Richardson rel {rel:.1e}; "
           f"elimination gap {elim_gap:.1e}, |w3| {w3_norm:.1e}")
