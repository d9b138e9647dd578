import numpy as np
import pytest

from ehdsolitary import (
    BaseParams,
    Branch,
    BranchPoint,
    ContinuationConfig,
    GridTooNarrow,
    NewtonConfig,
    NewtonError,
    ValidationError,
    classify_stop,
    continue_branch,
    init_small,
    make_grid,
    newton_solve,
    nodal_check,
)
from ehdsolitary import continuation
from ehdsolitary.cli import _auto_half_length
from ehdsolitary.continuation import (
    admissible_triggers,
    refine_grid,
    shrink_grid,
    small_amplitude_coefficients,
    widen_grid,
)
from ehdsolitary.spectral import cosine_coefficients
from helpers import random_even_trace


class TestInitSmall:
    def test_crest_height(self):
        # long-wave prefactor 3/(3 - 3 gamma + gamma^2 + 3 eps1), here
        # 0.03/4.5; dropping the permittivity corrections would give 0.03/3.5
        # and a first-order-accurate initializer only
        g = make_grid(512.0, 1024)
        t1, p = init_small(0.01, BaseParams(0.0, 0.5), g)
        assert t1[g.n_points // 2] == pytest.approx(0.03 / 4.5, rel=1e-12)
        assert p.alpha == pytest.approx(1.49, abs=1e-15)

    def test_eps1_free_prefactor(self):
        # without the electric field the corrections drop out
        g = make_grid(512.0, 1024)
        t1, _ = init_small(0.01, BaseParams(0.2, 0.0), g)
        assert t1[g.n_points // 2] == pytest.approx(
            3 * 0.01 / (3 - 0.6 + 0.04), rel=1e-12)

    def test_uniform_smallness_as_eps_vanishes(self):
        g = make_grid(1024.0, 1024)
        sups = [np.max(np.abs(init_small(eps, BaseParams(0.0, 0.5), g)[0]))
                for eps in (4e-3, 2e-3, 1e-3)]
        assert sups[0] < 3e-3
        # amplitude prefactor is linear in eps
        assert sups[0] / sups[1] == pytest.approx(2.0, rel=1e-10)
        assert sups[1] / sups[2] == pytest.approx(2.0, rel=1e-10)

    def test_half_height_position(self):
        # oracle: invert sech^2 = 1/2 numerically on the emitted profile
        from scipy.optimize import brentq
        base = BaseParams(0.0, 0.5)
        g = make_grid(512.0, 4096)
        eps = 0.01
        t1, _ = init_small(eps, base, g)
        crest = t1[g.n_points // 2]
        f = lambda x: np.interp(x, g.x, t1) - 0.5 * crest
        x_half = brentq(f, 0.0, 200.0, xtol=1e-10)
        _, rate_unit = small_amplitude_coefficients(base)
        expected = (2.0 / (rate_unit * np.sqrt(eps))) * np.arccosh(np.sqrt(2.0))
        # interpolation on the h=0.25 grid limits agreement
        assert x_half == pytest.approx(expected, abs=1e-2)

    def test_grid_too_narrow(self):
        g = make_grid(32.0, 64)
        with pytest.raises(GridTooNarrow) as exc:
            init_small(1e-3, BaseParams(0.0, 0.5), g)
        assert exc.value.required_half_length > 32.0

    def test_eps_out_of_regime(self):
        g = make_grid(64.0, 64)
        with pytest.raises(ValidationError, match="eps"):
            init_small(0.5, BaseParams(0.0, 0.5), g)
        with pytest.raises(ValidationError, match="eps"):
            init_small(-0.01, BaseParams(0.0, 0.5), g)


class TestRegridding:
    def test_widen_embeds_exactly(self):
        g = make_grid(16.0, 64)
        rng = np.random.default_rng(0)
        t = random_even_trace(g, rng)
        (t2,), g2 = widen_grid([t], g, factor=2.0)
        assert g2.spacing == pytest.approx(g.spacing, abs=0)
        pad = (g2.n_points - g.n_points) // 2
        assert np.array_equal(t2[pad:pad + g.n_points], t)
        assert np.all(t2[:pad] == 0) and np.all(t2[pad + g.n_points:] == 0)

    def test_shrink_takes_inner_samples(self):
        g = make_grid(16.0, 64)
        rng = np.random.default_rng(1)
        t = random_even_trace(g, rng)
        (t2,), g2 = shrink_grid([t], g)
        assert g2.half_length == 8.0
        assert g2.n_points == 32
        assert np.array_equal(t2, t[16:48])

    def test_refine_is_exact_interpolation(self):
        g = make_grid(16.0, 64)
        k = g.wavenumbers[5]
        t = np.cos(k * g.x)
        (t2,), g2 = refine_grid([t], g)
        expected = np.cos(k * g2.x)
        assert np.max(np.abs(t2 - expected)) < 1e-12

    def test_widen_then_shrink_round_trip(self):
        g = make_grid(16.0, 64)
        rng = np.random.default_rng(2)
        t = random_even_trace(g, rng)
        (tw,), gw = widen_grid([t], g, factor=2.0)
        back = shrink_grid([tw], gw)
        assert back is not None
        (ts,), gs = back
        assert gs.n_points == g.n_points
        assert np.array_equal(ts, t)


@pytest.fixture(scope="module")
def short_branch():
    base = BaseParams(0.0, 0.5)
    g = make_grid(704.0, 1024)
    cfg = ContinuationConfig(max_points=12, newton=NewtonConfig())
    return continue_branch(base, g, cfg), base


class TestContinueBranch:
    def test_budget_stop(self, short_branch):
        br, _ = short_branch
        assert br.stop_reason == "BUDGET"
        assert len(br.points) == 12

    def test_first_point_reproduces_initializer(self, short_branch):
        br, base = short_branch
        sol = br.solutions[0]
        eps = base.alpha_cr - sol.params.alpha
        t_init, _ = init_small(eps, base, sol.grid)
        gap = np.max(np.abs(sol.t1 - t_init))
        assert gap < 20.0 * eps ** 2

    def test_monitors_near_trivial_end(self, short_branch):
        br, base = short_branch
        first = br.points[0]
        assert first.monitor_m1 == pytest.approx(1.0 + base.eps1, abs=0.01)
        assert first.monitor_m2 == pytest.approx(1.0, abs=0.01)
        assert first.monitor_m3 == pytest.approx(1.0, abs=0.01)
        assert first.froude == pytest.approx(1.0 / np.sqrt(base.alpha_cr), rel=1e-2)

    def test_arclength_strictly_increasing(self, short_branch):
        br, _ = short_branch
        s = [p.s for p in br.points]
        assert all(b > a for a, b in zip(s, s[1:]))

    def test_amplitude_strictly_increasing(self, short_branch):
        br, _ = short_branch
        amps = [p.amplitude for p in br.points]
        assert all(b > a for a, b in zip(amps, amps[1:]))

    def test_subcritical_along_branch(self, short_branch):
        br, base = short_branch
        assert all(p.alpha < base.alpha_cr for p in br.points)
        assert all(p.lambda_min > 0 for p in br.points)

    def test_froude_consistency(self, short_branch):
        br, _ = short_branch
        for p in br.points:
            assert abs(p.froude - 1.0 / np.sqrt(p.alpha)) < 1e-14

    def test_domain_adequacy(self, short_branch):
        br, _ = short_branch
        cfg = ContinuationConfig()
        assert all(s.tail <= cfg.tail_tol for s in br.solutions)

    def test_nodal_along_branch(self, short_branch):
        from ehdsolitary import nodal_check
        br, _ = short_branch
        for s in br.solutions:
            assert nodal_check(s).passed

    def test_thresholds_recorded(self, short_branch):
        br, base = short_branch
        assert br.thresholds["m1_tol"] == pytest.approx(1e-2 * (1 + base.eps1))
        assert br.thresholds["max_points"] == 12


def _corrector_problem(gamma):
    """A converged small wave at N = 512 and the normalized eps-family
    tangent there: (base, grid, solution, tan_t, tan_a, c, c_alpha)."""
    base = BaseParams(gamma, 0.5)
    g = make_grid(256.0, 512)
    eps = 0.02
    t0, p = init_small(eps, base, g)
    sol = newton_solve(t0, p, g, NewtonConfig())
    d_eps = 1e-3 * eps
    tan_t = (init_small(eps + d_eps, base, g)[0] - t0) / d_eps
    tan_a = -1.0
    scale = float(np.max(np.abs(tan_t))) + abs(tan_a)
    tan_t, tan_a = tan_t / scale, tan_a / scale
    c = cosine_coefficients(tan_t, g)
    c_norm = float(np.sqrt(c @ c + tan_a * tan_a))
    return base, g, sol, tan_t, tan_a, c / c_norm, tan_a / c_norm


@pytest.mark.parametrize("gamma", [0.0, 0.4])
def test_bordered_krylov_step_matches_dense(gamma):
    # one arclength corrector solve from the same predictor: the dense LU
    # path and the matrix-free bordered GMRES path land on the same point,
    # on the arclength hyperplane through the predictor
    base, g, sol, tan_t, tan_a, c, c_alpha = _corrector_problem(gamma)
    p = sol.params
    ds = 5e-3
    t_pred, alpha_pred = sol.t1 + ds * tan_t, p.alpha + ds * tan_a
    out = {}
    for solver in ("dense", "krylov"):
        cfg = NewtonConfig(linear_solver=solver)
        out[solver] = newton_solve(t_pred, base.with_alpha(alpha_pred), g, cfg,
                                   tangent=(c, c_alpha))
        row = (c @ (cosine_coefficients(out[solver].t1 - t_pred, g))
               + c_alpha * (out[solver].params.alpha - alpha_pred))
        assert abs(row) <= cfg.tol
        hist = out[solver].norm_history
        assert len(hist) >= 2 and hist[-1] <= cfg.tol < hist[0]
    dense, krylov = out["dense"], out["krylov"]
    assert dense.params.alpha < p.alpha
    assert abs(krylov.params.alpha - dense.params.alpha) < 1e-9
    assert np.max(np.abs(krylov.t1 - dense.t1)) < 1e-9


def test_corrector_rejects_supercritical_predictor():
    base, g, sol, tan_t, _, c, c_alpha = _corrector_problem(0.0)
    with pytest.raises(NewtonError):
        newton_solve(sol.t1 + 5e-3 * tan_t, base.with_alpha(base.alpha_cr), g,
                     NewtonConfig(), tangent=(c, c_alpha))


def test_nonpositive_alpha_predictor_shrinks_step(monkeypatch):
    # at alpha_cr = 0.1 the first arclength predictor (ds = ds_max / 5 = 0.2)
    # lands at alpha <= 0; continue_branch must count it as a failed step and
    # retry at ds_shrink * ds rather than let the ValidationError escape
    base = BaseParams(0.9, 0.0)
    cfg = ContinuationConfig(eps_start=0.05, eps_growth=3.0, ds_max=1.0,
                             max_points=2)
    g = make_grid(_auto_half_length(cfg.eps_start, base.eps1), 256)
    predictors = []
    solve = continuation.newton_solve

    def recording(t1, p, grid, ncfg, tangent=None):
        if tangent is not None:
            predictors.append((np.array(t1), p.alpha))
        return solve(t1, p, grid, ncfg, tangent=tangent)

    monkeypatch.setattr(continuation, "newton_solve", recording)
    br = continue_branch(base, g, cfg)
    first = br.solutions[0]
    t_pred, alpha_pred = predictors[0]
    ds = float(np.max(np.abs(t_pred - first.t1))) + abs(alpha_pred - first.params.alpha)
    assert ds == pytest.approx(cfg.ds_max / 5.0 * cfg.ds_shrink, rel=1e-12)
    # the skipped predictor at twice this step had alpha <= 0
    assert first.params.alpha + 2.0 * (alpha_pred - first.params.alpha) <= 0.0
    assert alpha_pred > 0.0


@pytest.fixture(scope="module")
def krylov_branch():
    base = BaseParams(0.0, 0.5)
    g = make_grid(704.0, 1024)
    newton = NewtonConfig(linear_solver="krylov")
    return continue_branch(base, g, ContinuationConfig(max_points=12, newton=newton)), base


class TestKrylovBranch:
    """The short_branch invariants on a branch whose every linear solve,
    bordered corrector steps included, is preconditioned GMRES."""

    def test_amplitude_strictly_increasing(self, krylov_branch):
        br, _ = krylov_branch
        assert br.stop_reason == "BUDGET" and len(br.points) == 12
        amps = [p.amplitude for p in br.points]
        assert all(b > a for a, b in zip(amps, amps[1:]))

    def test_subcritical_along_branch(self, krylov_branch):
        br, base = krylov_branch
        assert all(p.alpha < base.alpha_cr for p in br.points)
        assert all(p.lambda_min > 0 for p in br.points)

    def test_nodal_along_branch(self, krylov_branch):
        br, _ = krylov_branch
        assert all(nodal_check(s).passed for s in br.solutions)


class TestClassifyStop:
    def _branch(self, reason, note=""):
        pt = BranchPoint(s=0.0, alpha=1.0, amplitude=0.1, monitor_m1=0.5,
                         monitor_m2=0.9, monitor_m3=1.2, froude=1.0,
                         lambda_min=1.0, residual_norm=0.0)
        return Branch(points=[pt], solutions=[], stop_reason=reason, note=note)

    def test_admissible_sets_by_vorticity_sign(self):
        assert admissible_triggers(0.0) == {"M1_VANISHING", "FROUDE_BLOWUP"}
        assert admissible_triggers(0.3) == {"M2_VANISHING", "M3_BLOWUP",
                                            "FROUDE_BLOWUP"}
        assert admissible_triggers(-0.3) == {"M1_VANISHING", "M2_VANISHING",
                                             "FROUDE_BLOWUP"}

    def test_stagnation_trigger_zero_vorticity(self):
        from ehdsolitary import make_params
        rep = classify_stop(self._branch("M1_VANISHING"), make_params(0.0, 0.5, 1.0))
        assert rep.admissible and not rep.discrepancy
        assert "stagnation" in rep.explanation
        assert "crest" in rep.explanation

    def test_gradient_trigger_flagged_for_zero_vorticity(self):
        from ehdsolitary import make_params
        rep = classify_stop(self._branch("M2_VANISHING"), make_params(0.0, 0.5, 1.0))
        assert rep.discrepancy
        assert rep.admissible is False

    def test_gradient_blowup_positive_vorticity(self):
        from ehdsolitary import make_params
        rep = classify_stop(self._branch("M3_BLOWUP"), make_params(0.3, 0.5, 1.0))
        assert rep.admissible and not rep.discrepancy
        assert "conformal" in rep.explanation

    def test_budget_is_not_a_limit_trigger(self):
        from ehdsolitary import make_params
        rep = classify_stop(self._branch("BUDGET", "point budget exhausted"),
                            make_params(0.0, 0.5, 1.0))
        assert rep.admissible is None
        assert not rep.discrepancy


def test_branch_continuity(short_branch):
    # consecutive traces differ in sup-norm by less than 5x the realized
    # arclength step (same-grid pairs; regrid transitions are exact embeddings)
    br, _ = short_branch
    checked = 0
    for (p0, p1, s0, s1) in zip(br.solutions, br.solutions[1:],
                                br.points, br.points[1:]):
        if p0.grid.n_points != p1.grid.n_points or \
                p0.grid.half_length != p1.grid.half_length:
            continue
        gap = float(np.max(np.abs(p1.t1 - p0.t1)))
        assert gap < 5.0 * (s1.s - s0.s)
        checked += 1
    assert checked >= 3
