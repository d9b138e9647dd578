import dataclasses
import re

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
    NodalReport,
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
from ehdsolitary.system import SurfaceState
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

    @pytest.mark.parametrize("eps", [0.0, -0.01, 0.5, np.nan])
    def test_decay_refuses_eps_out_of_regime(self, eps):
        # the CLI sizes its box from initializer_decay before init_small runs
        with pytest.raises(ValidationError) as exc:
            continuation.initializer_decay(eps, BaseParams(0.0, 0.5))
        assert exc.value.field_name == "eps"


class TestRegridding:
    def test_widen_embeds_exactly(self):
        g = make_grid(16.0, 64)
        rng = np.random.default_rng(0)
        t = random_even_trace(g, rng)
        t2, g2 = widen_grid(t, g)
        assert g2.spacing == pytest.approx(g.spacing, abs=0)
        pad = (g2.n_points - g.n_points) // 2
        assert np.array_equal(t2[pad:pad + g.n_points], t)
        assert np.all(t2[:pad] == 0) and np.all(t2[pad + g.n_points:] == 0)

    def test_shrink_takes_inner_samples(self):
        g = make_grid(16.0, 64)
        rng = np.random.default_rng(1)
        t = random_even_trace(g, rng)
        t2, g2 = shrink_grid(t, g)
        assert g2.half_length == 8.0
        assert g2.n_points == 32
        assert np.array_equal(t2, t[16:48])

    def test_refine_is_exact_interpolation(self):
        g = make_grid(16.0, 64)
        k = g.wavenumbers[5]
        t = np.cos(k * g.x)
        t2, g2 = refine_grid(t, g)
        expected = np.cos(k * g2.x)
        assert np.max(np.abs(t2 - expected)) < 1e-12

    def test_widen_then_shrink_round_trip(self):
        g = make_grid(16.0, 64)
        rng = np.random.default_rng(2)
        t = random_even_trace(g, rng)
        tw, gw = widen_grid(t, g)
        back = shrink_grid(tw, gw)
        assert back is not None
        ts, gs = back
        assert gs.n_points == g.n_points
        assert np.array_equal(ts, t)


@pytest.fixture(scope="module")
def short_branch():
    base = BaseParams(0.0, 0.5)
    g = make_grid(704.0, 1024)
    cfg = ContinuationConfig(max_points=12, newton=NewtonConfig())
    return continue_branch(base, g, cfg), base


@pytest.mark.parametrize("max_points", [0, -3])
def test_config_refuses_an_empty_point_budget(max_points):
    with pytest.raises(ValidationError) as exc:
        ContinuationConfig(max_points=max_points)
    assert exc.value.field_name == "max_points"


@pytest.mark.parametrize("field", ["m1_tol", "m2_tol", "m3_cap", "f_cap", "tail_tol"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_config_refuses_a_threshold_that_is_not_finite_and_positive(field, value):
    with pytest.raises(ValidationError) as exc:
        ContinuationConfig(**{field: value})
    assert exc.value.field_name == field


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

    def test_nodal_check_reads_the_recorded_state(self, monkeypatch):
        # accept builds one SurfaceState per point: its monitors and lambda
        # go into the BranchPoint, and nodal_check is given that state with
        # the level fields that lambda evaluated
        seen = []

        def recording(state, **kwargs):
            seen.append((state, "level_fields" in vars(state)))
            return nodal_check(state, **kwargs)

        monkeypatch.setattr(continuation, "nodal_check", recording)
        g = make_grid(_auto_half_length(1e-3, 0.5), 512)
        br = continue_branch(BaseParams(0.4, 0.5), g, ContinuationConfig(max_points=4))
        assert len(seen) == len(br.points) == 4
        for (state, evaluated), point, sol in zip(seen, br.points, br.solutions):
            assert isinstance(state, SurfaceState) and evaluated
            assert state.t1 is sol.t1
            assert vars(state)["lambda_min"] == point.lambda_min
            assert state.monitors == (point.monitor_m1, point.monitor_m2,
                                      point.monitor_m3)

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
    # at alpha_cr = 0.1 the first arclength predictor (ds = DS_MAX / 5 = 0.2)
    # lands at alpha <= 0; continue_branch must count it as a failed step and
    # retry at DS_SHRINK * ds rather than let the ValidationError escape
    monkeypatch.setattr(continuation, "EPS_GROWTH", 3.0)
    monkeypatch.setattr(continuation, "DS_MAX", 1.0)
    base = BaseParams(0.9, 0.0)
    cfg = ContinuationConfig(eps_start=0.05, max_points=2)
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
    assert ds == pytest.approx(continuation.DS_MAX / 5.0 * continuation.DS_SHRINK, rel=1e-12)
    # the skipped predictor at twice this step had alpha <= 0
    assert first.params.alpha + 2.0 * (alpha_pred - first.params.alpha) <= 0.0
    assert alpha_pred > 0.0


def test_step_underflow_stops_on_step_failure(monkeypatch):
    # every corrector solve fails: ds halves on each attempt from the first
    # arclength step down to DS_MIN, and the branch stops on STEP_FAILURE
    base = BaseParams(0.0, 0.5)
    cfg = ContinuationConfig(eps_start=0.05, max_points=20)
    g = make_grid(_auto_half_length(cfg.eps_start, base.eps1), 256)
    attempts = []
    solve = continuation.newton_solve

    def failing(t1, p, grid, ncfg, tangent=None):
        if tangent is None:
            return solve(t1, p, grid, ncfg)
        attempts.append((np.array(t1), p.alpha))
        if len(attempts) > 100:      # ds is not shrinking: fail, do not hang
            raise RuntimeError("step size does not shrink")
        raise NewtonError("corrector failed")

    monkeypatch.setattr(continuation, "newton_solve", failing)
    br = continue_branch(base, g, cfg)
    assert br.stop_reason == "STEP_FAILURE"
    assert br.note == "step size underflowed below 1.0e-08"
    last = br.solutions[-1]
    ds = [float(np.max(np.abs(t - last.t1))) + abs(a - last.params.alpha)
          for t, a in attempts]
    assert ds[0] <= continuation.DS_MAX * (1.0 + 1e-12)
    for a, b in zip(ds, ds[1:]):
        assert b == pytest.approx(continuation.DS_SHRINK * a, rel=1e-6)
    assert ds[-1] >= continuation.DS_MIN > continuation.DS_SHRINK * ds[-1]


def test_failed_eps_stage_regrid_moves_nothing(monkeypatch):
    # the third eps-stage point refines the grid and its re-solve fails; a
    # regrid commits only when its solve succeeds, so the arclength stage
    # starts from the secant on the pre-refine grid
    base = BaseParams(0.0, 0.5)
    cfg = ContinuationConfig(eps_start=0.05, max_points=4)
    g = make_grid(_auto_half_length(cfg.eps_start, base.eps1), 256)
    third = base.alpha_cr - cfg.eps_start * continuation.EPS_GROWTH ** 2
    events, third_grids, corrector_grids = [], [], []
    solve, tail = continuation.newton_solve, continuation._mode_tail_fraction

    def failing_after_refine(t1, p, grid, ncfg, tangent=None):
        if tangent is not None:
            corrector_grids.append(grid)
        elif abs(p.alpha - third) < 1e-12:
            if "refined" in events:
                events.append("failed")
                raise NewtonError("re-solve on the refined grid failed")
            events.append("third")
            third_grids.append(grid)
        return solve(t1, p, grid, ncfg, tangent=tangent)

    def refining_once(t1, grid):
        if events == ["third"]:
            events.append("refined")
            return 1.0
        return tail(t1, grid)

    monkeypatch.setattr(continuation, "newton_solve", failing_after_refine)
    monkeypatch.setattr(continuation, "_mode_tail_fraction", refining_once)
    br = continue_branch(base, g, cfg)
    assert events == ["third", "refined", "failed"]
    assert br.stop_reason == "BUDGET" and len(br.points) == 4
    amps = [p.amplitude for p in br.points]
    assert all(b > a for a, b in zip(amps, amps[1:]))
    assert corrector_grids[0] is third_grids[0]


def _small_start(**cfg):
    """gamma = 0, eps1 = 0.5 from eps = 0.05 on 256 points: the second point
    halves the box to L = 64, the third refines it to N = 256, and the
    arclength stage starts at the fifth point."""
    cfg = ContinuationConfig(eps_start=0.05, **cfg)
    return BaseParams(0.0, 0.5), make_grid(_auto_half_length(0.05, 0.5), 256), cfg


def test_refine_committed_before_a_failed_round_moves_the_stage(monkeypatch):
    # the third eps-stage point refines once and re-solves, then refines again
    # and that re-solve fails: the first regrid has committed, so the
    # arclength stage predicts on the refined grid along the refined secant
    base, g, cfg = _small_start(max_points=3)
    third = base.alpha_cr - cfg.eps_start * continuation.EPS_GROWTH ** 2
    events, refined, predictors = [], [], []
    solve, tail = continuation.newton_solve, continuation._mode_tail_fraction

    def failing_second_refine(t1, p, grid, ncfg, tangent=None):
        if tangent is not None:
            predictors.append((grid, np.array(t1), p.alpha))
        elif abs(p.alpha - third) < 1e-12:
            if not events:
                events.append("third")
            elif events[-1] == "refine":
                events.append("resolved")
                refined.append(grid)
            elif events[-1] == "refine again":
                events.append("failed")
                raise NewtonError("second re-solve failed")
        return solve(t1, p, grid, ncfg, tangent=tangent)

    def refining_twice(t1, grid):
        if events in (["third"], ["third", "refine", "resolved"]):
            events.append("refine" if len(events) == 1 else "refine again")
            return 1.0
        return tail(t1, grid)

    monkeypatch.setattr(continuation, "newton_solve", failing_second_refine)
    monkeypatch.setattr(continuation, "_mode_tail_fraction", refining_twice)
    br = continue_branch(base, g, cfg)
    assert events == ["third", "refine", "resolved", "refine again", "failed"]
    assert br.stop_reason == "BUDGET" and len(br.points) == 3
    first, second = br.solutions[:2]
    assert second.grid.half_length == 0.5 * first.grid.half_length
    assert refined[0].n_points == 2 * second.grid.n_points
    grid, t_pred, alpha_pred = predictors[0]
    assert grid is refined[0]
    # the secant into the second point, on its box, refined with it
    sec_t = second.t1 - shrink_grid(first.t1, first.grid)[0]
    sec_a = second.params.alpha - first.params.alpha
    prev_t = refine_grid(second.t1, second.grid)[0]
    sec_t = refine_grid(sec_t, second.grid)[0]
    along = (alpha_pred - second.params.alpha) / sec_a
    assert along > 0.0
    assert np.allclose(t_pred, prev_t + along * sec_t, rtol=0.0, atol=1e-14)


def test_mode_budget_stops_on_step_failure(monkeypatch):
    # a widening past N_MAX in the arclength stage ends the branch with the
    # adaptation's message; no point beyond the budget is recorded
    monkeypatch.setattr(continuation, "N_MAX", 256)
    br = continue_branch(*_small_start(max_points=40))
    assert br.stop_reason == "STEP_FAILURE"
    assert re.fullmatch(r"box adaptation failed: tail \S+ above tolerance but "
                        r"the mode budget n_max=256 is exhausted", br.note)
    assert len(br.points) >= 5
    assert all(s.grid.n_points <= 256 for s in br.solutions)


def test_nodal_defect_stops_on_step_failure(monkeypatch):
    # the third converged candidate fails the nodal check: it is not recorded
    calls = []

    def failing_third(state, **kwargs):
        calls.append(state)
        if len(calls) == 3:
            return NodalReport(passed=False, x_tail=1.0,
                               violations=[(1.0, 0.25), (0.5, 0.5)])
        return nodal_check(state, **kwargs)

    monkeypatch.setattr(continuation, "nodal_check", failing_third)
    br = continue_branch(*_small_start(max_points=10))
    assert br.stop_reason == "STEP_FAILURE"
    assert br.note == "defect: nodal monotonicity failed at 2 sample(s)"
    assert len(calls) == 3 and len(br.points) == len(br.solutions) == 2


def _refine_in_place_from(monkeypatch, n_accepted):
    """From the candidate after the n_accepted-th on, every adaptation round
    asks for a refinement that leaves the grid as it is, so the box never
    settles."""
    accepted = []
    check = continuation.nodal_check
    tail, refine = continuation._mode_tail_fraction, continuation.refine_grid

    def counting(state, **kwargs):
        accepted.append(state)
        return check(state, **kwargs)

    def spinning(t1, grid):
        return 1.0 if len(accepted) >= n_accepted else tail(t1, grid)

    def in_place(t, grid):
        return (t.copy(), grid) if len(accepted) >= n_accepted else refine(t, grid)

    monkeypatch.setattr(continuation, "nodal_check", counting)
    monkeypatch.setattr(continuation, "_mode_tail_fraction", spinning)
    monkeypatch.setattr(continuation, "refine_grid", in_place)


def test_unsettled_start_box_fails_the_branch_start(monkeypatch):
    _refine_in_place_from(monkeypatch, 0)
    with pytest.raises(NewtonError, match=r"^branch start failed at eps=0\.05: "
                       r"box adaptation did not settle within 8 rounds$"):
        continue_branch(*_small_start(max_points=2))


def test_unsettled_box_stops_the_arclength_stage(monkeypatch):
    # the sixth candidate is the arclength stage's second
    _refine_in_place_from(monkeypatch, 5)
    br = continue_branch(*_small_start(max_points=10))
    assert br.stop_reason == "STEP_FAILURE"
    assert br.note == "box adaptation failed: box adaptation did not settle within 8 rounds"
    assert len(br.points) == 5


@pytest.mark.parametrize("outcome", ["fails", "tail too large"])
def test_rejected_halving_keeps_the_point_on_its_box(monkeypatch, outcome):
    # every halving's re-solve fails, or converges with a tail above
    # tail_tol: the point stays on its box, and no halving regrids the
    # stored point or secant, so every shrink_grid call is one attempt
    base, g, cfg = _small_start(max_points=6)
    halved, attempts = [], []
    solve, shrink = continuation.newton_solve, continuation.shrink_grid

    def recording_shrink(t, grid):
        out = shrink(t, grid)
        if out is not None:
            halved.append(out[1])
        return out

    def rejecting(t1, p, grid, ncfg, tangent=None):
        if any(grid is h for h in halved):
            attempts.append(grid)
            if outcome == "fails":
                raise NewtonError("halved re-solve failed")
            return dataclasses.replace(solve(t1, p, grid, ncfg), tail=1.0)
        return solve(t1, p, grid, ncfg, tangent=tangent)

    monkeypatch.setattr(continuation, "shrink_grid", recording_shrink)
    monkeypatch.setattr(continuation, "newton_solve", rejecting)
    br = continue_branch(base, g, cfg)
    assert br.stop_reason == "BUDGET" and len(br.points) == 6
    assert len(attempts) == len(halved) >= 1
    assert all(s.grid.half_length == g.half_length for s in br.solutions)


@pytest.mark.parametrize("failing", ["corrector", "adaptation"])
def test_failed_step_record_drops_the_traceback(monkeypatch, failing):
    # the record outlives the handling of its failure until the next step
    # returns; a traceback would keep the failed solve's frames, and with
    # them its Jacobian and LU factors, alive through that step
    base, g, cfg = _small_start()
    calls = []
    solve = continuation.newton_solve

    def failing_solve(*args, **kwargs):
        calls.append(args)
        if failing == "corrector" or len(calls) > 1:
            raise NewtonError(f"{failing} failed")
        return solve(*args, **kwargs)

    monkeypatch.setattr(continuation, "newton_solve", failing_solve)
    monkeypatch.setattr(continuation, "_mode_tail_fraction", lambda t1, grid: 1.0)
    rec = continuation._step(base, g, cfg, eps=cfg.eps_start)
    assert str(rec.error) == f"{failing} failed"
    assert rec.error.__traceback__ is None
    assert (rec.sol is None) == (failing == "corrector") and rec.regrids == ()


def test_narrow_start_box_raises_grid_too_narrow():
    # the first point's predictor checks its box; the error is not wrapped
    base = BaseParams(0.0, 0.5)
    with pytest.raises(GridTooNarrow) as exc:
        continue_branch(base, make_grid(32.0, 64), ContinuationConfig(max_points=2))
    assert exc.value.required_half_length > 32.0


def test_halved_box_too_narrow_for_the_eps_stage_still_steps():
    # gamma = -0.3: the first point halves the box to L = 112, the eps stage's
    # initializer does not fit there, and the arclength stage starts from the
    # family's closed-form tangent, which checks no box
    br = continue_branch(BaseParams(-0.3, 0.2), make_grid(224.0, 512),
                         ContinuationConfig(eps_start=0.01, tail_tol=1e-8,
                                            max_points=2))
    assert br.solutions[0].grid.half_length == 112.0
    assert br.stop_reason == "BUDGET" and len(br.points) == 2
    assert br.points[1].amplitude > br.points[0].amplitude


@pytest.mark.parametrize("gamma, eps", [(0.0, 0.01), (-0.3, 0.05), (0.4, 0.09)])
def test_family_tangent_is_the_eps_derivative(gamma, eps):
    # the closed-form tangent against a centred difference of the initializer
    base = BaseParams(gamma, 0.5)
    g = make_grid(1024.0, 4096)
    h = 1e-4 * eps
    (t_hi, p_hi), (t_lo, p_lo) = (init_small(eps + h, base, g),
                                  init_small(eps - h, base, g))
    diff = (t_hi - t_lo) / (2.0 * h)
    tan_t, tan_a = continuation._family_tangent(eps, base, g)
    assert np.max(np.abs(tan_t - diff)) <= 1e-6 * np.max(np.abs(diff))
    assert tan_a == -1.0
    assert (p_hi.alpha - p_lo.alpha) / (2.0 * h) == pytest.approx(tan_a, rel=1e-6)


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

    def test_failed_box_adaptation_is_named(self):
        # the stop every full branch ends on: the explanation names the cause
        # before the note repeats the adaptation's message
        from ehdsolitary import make_params
        note = ("box adaptation failed: tail 1.46e-09 above tolerance but the "
                "mode budget n_max=12288 is exhausted")
        rep = classify_stop(self._branch("STEP_FAILURE", note),
                            make_params(0.0, 0.5, 1.0))
        assert rep.admissible is None and not rep.discrepancy
        cause, _, rest = rep.explanation.partition(f" ({note})")
        assert "box adaptation" in cause and "mode budget" in cause
        assert rest == ""


def test_corrector_points_are_not_resolved(monkeypatch):
    # a converged corrector point passes its adequacy checks as it is; a
    # fixed-alpha solve from that very trace on the same grid is wasted work
    calls = []

    def recording(t1_init, p, g, cfg=NewtonConfig(), tangent=None):
        sol = newton_solve(t1_init, p, g, cfg, tangent=tangent)
        calls.append((tangent is not None, np.array(t1_init), g, sol))
        return sol

    monkeypatch.setattr(continuation, "newton_solve", recording)
    br = continue_branch(BaseParams(0.0, 0.5), make_grid(704.0, 1024),
                         ContinuationConfig(max_points=12))
    assert len(br.points) == 12
    assert sum(corrector for corrector, *_ in calls) >= 3
    for (corrector, _, g0, sol), (next_corrector, t_init, g1, _) in zip(
            calls, calls[1:]):
        if corrector and not next_corrector and g1 is g0:
            assert not np.array_equal(t_init, sol.t1)


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
