import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lu_factor

from ehdsolitary import newton, system
from ehdsolitary import (
    BaseParams,
    NewtonConfig,
    NewtonError,
    init_small,
    make_grid,
    make_params,
    newton_solve,
)
from ehdsolitary.continuation import refine_grid
from ehdsolitary.io import load_solution
from ehdsolitary.model import symmetry_error
from ehdsolitary.spectral import cosine_coefficients, values_from_cosine
from ehdsolitary.system import residual
from helpers import (blockwise_bordered_lu, bordered_matrix, crest_state,
                     reference_dense_jacobian)
from three_component import newton_solve_three_component

FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"


@pytest.fixture(scope="module")
def setup():
    base = BaseParams(0.0, 0.5)
    g = make_grid(256.0, 512)
    return base, g


class TestNewtonSolve:
    def test_trivial_init_returns_trivial(self, setup):
        base, g = setup
        p = base.with_alpha(1.0)
        sol = newton_solve(np.zeros(g.n_points), p, g, NewtonConfig())
        assert sol.residual_norm == 0.0
        assert np.max(np.abs(sol.t1)) == 0.0
        assert len(sol.norm_history) == 1

    def test_asymptotic_init_converges_fast(self, setup):
        base, g = setup
        t0, p = init_small(0.01, base, g)
        sol = newton_solve(t0, p, g, NewtonConfig())
        iters = len(sol.norm_history) - 1
        assert iters <= 6
        assert sol.residual_norm <= 1e-11

    def test_quadratic_convergence_tail(self, setup):
        base, g = setup
        t0, p = init_small(0.02, base, g)
        sol = newton_solve(t0, p, g, NewtonConfig(tol=1e-13))
        h = [v for v in sol.norm_history if v > 1e-14]
        # ratio log test: log(e_{i+1}) / log(e_i) approaches ~2 on the tail
        logs = np.log10(np.array(h))
        ratios = logs[1:] / logs[:-1]
        assert ratios[-1] > 1.5

    def test_deterministic_dense_path(self, setup):
        base, g = setup
        t0, p = init_small(0.01, base, g)
        cfg = NewtonConfig(linear_solver="dense")
        s1 = newton_solve(t0, p, g, cfg)
        s2 = newton_solve(t0, p, g, cfg)
        assert np.array_equal(s1.t1, s2.t1)
        assert s1.norm_history == s2.norm_history

    def test_monotone_norm_decrease(self, setup):
        base, g = setup
        t0, p = init_small(0.03, base, g)
        sol = newton_solve(t0, p, g, NewtonConfig())
        h = sol.norm_history
        assert all(b < a for a, b in zip(h, h[1:]))

    @pytest.mark.parametrize("solver", ["dense", "krylov"])
    @pytest.mark.parametrize("gamma", [0.0, 0.4])
    def test_iterates_even_symmetric(self, setup, gamma, solver):
        _, g = setup
        t0, p = init_small(0.01, BaseParams(gamma, 0.5), g)
        sol = newton_solve(t0, p, g, NewtonConfig(linear_solver=solver))
        assert symmetry_error(sol.t1) < 1e-12

    def test_krylov_path_agrees_with_dense(self, setup):
        base, g = setup
        t0, p = init_small(0.01, base, g)
        dense = newton_solve(t0, p, g, NewtonConfig(linear_solver="dense"))
        kry = newton_solve(t0, p, g, NewtonConfig(linear_solver="krylov"))
        assert np.max(np.abs(dense.t1 - kry.t1)) < 1e-9

    def test_supercritical_rejected(self, setup):
        base, g = setup
        p = make_params(base.gamma, base.eps1, base.alpha_cr + 0.1)
        t0 = 0.01 / np.cosh(0.3 * g.x) ** 2
        # no solitary regime above the critical speed: the solver refuses
        with pytest.raises(NewtonError, match="alpha"):
            newton_solve(t0, p, g, NewtonConfig())

    def test_wave_solution_fields(self, setup):
        base, g = setup
        t0, p = init_small(0.01, base, g)
        sol = newton_solve(t0, p, g, NewtonConfig())
        assert sol.amplitude == sol.t1[g.n_points // 2]
        outer = np.abs(g.x) >= 0.9 * g.half_length
        assert sol.tail == np.max(np.abs(sol.t1[outer]))
        assert sol.tail < 1e-9


class TestPinnedBorder:
    """A fixed-alpha step is the bordered step whose last row pins alpha:
    c = 0, c_alpha = 1, n_val = 0."""

    @pytest.mark.parametrize("solver", ["dense", "krylov"])
    @pytest.mark.parametrize("gamma", [0.0, 0.4])
    def test_fixed_alpha_step_is_pinned_bordered_step(self, gamma, solver):
        g = make_grid(256.0, 512)
        t0, p = init_small(0.02, BaseParams(gamma, 0.5), g)
        state = system.SurfaceState(t0, p, g)
        cfg = NewtonConfig(linear_solver=solver)
        dt = newton.solve_newton_step(state, state.residual, p, g, cfg)
        da, d_alpha = newton._bordered_solver(
            state, np.zeros(g.n_modes), 1.0, cfg)(state.residual, 0.0)
        assert d_alpha == 0.0
        assert np.array_equal(dt, values_from_cosine(da, g))
        # and it is the Newton step J dt = -R
        defect = system.jacobian_apply(state, dt, p, g) + state.residual
        assert np.max(np.abs(defect)) <= 1e-8 * np.max(np.abs(state.residual))

    @pytest.mark.parametrize("solver", ["dense", "krylov"])
    def test_fixed_alpha_solve_keeps_alpha(self, setup, solver):
        base, g = setup
        t0, p = init_small(0.02, base, g)
        sol = newton_solve(t0, p, g, NewtonConfig(linear_solver=solver))
        assert len(sol.norm_history) > 1
        assert sol.params.alpha == p.alpha


@pytest.mark.parametrize("field,value", [
    ("tol", 0.0), ("tol", -1e-11), ("tol", float("inf")), ("linear_solver", "lu"),
])
def test_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        NewtonConfig(**{field: value})


class TestThreeComponentOracle:
    def test_matches_eliminated_solve(self):
        # full system with the stream and electric traces as unknowns must
        # reproduce the eliminated solve
        base = BaseParams(0.3, 0.4)
        g = make_grid(160.0, 256)
        t0, p = init_small(0.02, base, g)
        cfg = NewtonConfig(tol=1e-11)
        sol = newton_solve(t0, p, g, cfg)
        t1f, t2f, t3f, hist = newton_solve_three_component(t0, p, g, cfg)
        assert np.max(np.abs(t1f - sol.t1)) <= 10 * cfg.tol
        assert np.max(np.abs(t3f)) <= cfg.tol
        # eliminated stream trace agrees with its closed form
        expected_t2 = -p.gamma * t1f - 0.5 * p.gamma * t1f ** 2
        assert np.max(np.abs(t2f - expected_t2)) <= 10 * cfg.tol

    def test_full_residual_small(self):
        base = BaseParams(0.3, 0.4)
        g = make_grid(160.0, 256)
        t0, p = init_small(0.02, base, g)
        t1f, t2f, t3f, _ = newton_solve_three_component(t0, p, g, NewtonConfig())
        r = residual(t1f, p, g)
        assert np.max(np.abs(r)) < 1e-10


class TestAdmissibleSet:
    def test_stagnating_initializer_rejected(self):
        # the stagnation factor 1 + eps1 - 2 alpha t1 vanishes exactly at the
        # crest of this trace (all quantities binary-exact), so the iterate
        # sits outside the admissible set
        from ehdsolitary import LeftAdmissibleSet
        g = make_grid(np.pi * 4, 64)
        k = g.wavenumbers[1]
        t0 = 0.75 * np.cos(k * g.x)
        p = make_params(0.0, 0.5, 1.0)
        with pytest.raises(LeftAdmissibleSet):
            newton_solve(t0, p, g, NewtonConfig())

    def test_initializer_past_stagnation_rejected(self):
        # lambda squares the stagnation factor, so it stays positive on this
        # trace although stag = 1 + eps1 - 2 alpha t1 = -0.1 at the crest
        from ehdsolitary import LeftAdmissibleSet
        g = make_grid(np.pi * 4, 64)
        t0 = 0.8 * np.cos(g.wavenumbers[1] * g.x)
        p = make_params(0.0, 0.5, 1.0)
        state = system.SurfaceState(t0, p, g)
        assert np.min(state.stag) == pytest.approx(-0.1)
        assert system.lambda_min(t0, p, g) == pytest.approx(5.9e-3, rel=0.05)
        with pytest.raises(LeftAdmissibleSet, match="stag <= 0"):
            newton_solve(t0, p, g, NewtonConfig())

    def test_damped_step_past_stagnation_rejected(self, setup, monkeypatch):
        # an admissible start whose every damped candidate is past
        # stagnation on the surface: each is refused before its lambda is
        # read, so only the initial state's lambda is
        from ehdsolitary import LeftAdmissibleSet
        base, g = setup
        t0, p = init_small(0.01, base, g)
        init = system.SurfaceState.__init__
        built, read = [], []
        state_lambda = system.SurfaceState.lambda_min

        def past_stagnation(state, *args):
            init(state, *args)
            if built:                   # every state after the initial one
                state.stag = np.where(state.t1 == state.t1.max(), -1e-3, state.stag)
            built.append(state)

        def reading_lambda(state):
            read.append(state)
            return state_lambda.__get__(state, type(state))

        monkeypatch.setattr(system.SurfaceState, "__init__", past_stagnation)
        monkeypatch.setattr(system.SurfaceState, "lambda_min", property(reading_lambda))
        with pytest.raises(LeftAdmissibleSet, match="no damped step"):
            newton_solve(t0, p, g, NewtonConfig())
        assert len(built) == 1 + 1 - int(np.log2(newton.MIN_STEP))
        assert read == built[:1]

    def test_no_admissible_damped_step(self, setup, monkeypatch):
        # an admissible start whose every damped candidate has lambda <= 0
        from ehdsolitary import LeftAdmissibleSet
        base, g = setup
        t0, p = init_small(0.01, base, g)
        assert system.lambda_min(t0, p, g) > 0
        read = []
        state_lambda = system.SurfaceState.lambda_min

        def zero_lambda_after_start(state):
            read.append(state)
            return state_lambda.__get__(state, type(state)) if len(read) == 1 else 0.0

        monkeypatch.setattr(system.SurfaceState, "lambda_min",
                            property(zero_lambda_after_start))
        with pytest.raises(LeftAdmissibleSet, match="no damped step"):
            newton_solve(t0, p, g, NewtonConfig())
        # the initial state's, then steps 1, 1/2, ..., MIN_STEP were all
        # tried and damped
        assert len(read) == 1 + 1 - int(np.log2(newton.MIN_STEP))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_iterate_rejected(self, setup, bad):
        # its lambda is nan, which is not > 0: LeftAdmissibleSet, not the
        # state's NonFiniteTrace
        from ehdsolitary import LeftAdmissibleSet
        base, g = setup
        t0, p = init_small(0.01, base, g)
        t0[g.n_points // 2] = bad
        with pytest.raises(LeftAdmissibleSet, match="lambda <= 0"), \
                np.errstate(invalid="ignore"):
            newton_solve(t0, p, g, NewtonConfig())

    def test_non_finite_candidate_residual_is_damped(self, setup, monkeypatch):
        # the full step's residual is non-finite: the step is halved, and the
        # solve converges as usual
        base, g = setup
        t0, p = init_small(0.01, base, g)
        reference = newton_solve(t0, p, g, NewtonConfig())
        residuals = []
        require = system._require_finite

        def failing_first_candidate(arr, label):
            if label == "Bernoulli residual":
                residuals.append(label)
                if len(residuals) == 2:     # the initial iterate is first
                    raise system.NonFiniteTrace("forced")
            require(arr, label)

        monkeypatch.setattr(system, "_require_finite", failing_first_candidate)
        sol = newton_solve(t0, p, g, NewtonConfig())
        assert sol.residual_norm <= NewtonConfig().tol
        assert len(residuals) > len(reference.norm_history)


class TestStateReuse:
    """The base state of an iterate is derived once: every matvec and the
    dense assembly read it."""

    @pytest.fixture(scope="class")
    def fixture_state(self):
        """Branch fixture state 35 (amplitude 0.42, N = 1024)."""
        sol, _, _ = load_solution(FIXTURES / "point_00035.json")
        return sol

    @staticmethod
    def perturbed(t1, g):
        return t1 * (1.0 + 1e-3 * np.cos(2.0 * np.pi * g.x / g.half_length))

    @pytest.fixture(scope="class")
    def stiff_state(self, fixture_state):
        """The fixture state refined to N = 2048, perturbed by 1e-3 at the crest."""
        t1, g = refine_grid(fixture_state.t1, fixture_state.grid)
        return self.perturbed(t1, g), fixture_state.params, g

    @pytest.fixture
    def counts(self, monkeypatch):
        """Records of what newton sees: the SurfaceStates constructed, the
        states whose lambda was read, the alpha-range passes (newton's
        replace) and Jacobian applications."""
        seen = {"states": [], "lambda_reads": [], "alpha_passes": 0,
                "matvecs": 0}
        init = system.SurfaceState.__init__
        state_lambda = system.SurfaceState.lambda_min

        def counting_init(self, *args):
            seen["states"].append(self)
            init(self, *args)

        def reading_lambda(self):
            seen["lambda_reads"].append(self)
            return state_lambda.__get__(self, type(self))

        def counting_replace(*args, **kwargs):
            seen["alpha_passes"] += 1
            return replace(*args, **kwargs)

        def counting_apply(*args):
            seen["matvecs"] += 1
            return system.jacobian_apply(*args)

        monkeypatch.setattr(system.SurfaceState, "__init__", counting_init)
        monkeypatch.setattr(system.SurfaceState, "lambda_min", property(reading_lambda))
        monkeypatch.setattr(newton, "replace", counting_replace)
        monkeypatch.setattr(newton, "jacobian_apply", counting_apply)
        return seen

    @pytest.mark.parametrize("bordered", [False, True])
    def test_krylov_step_builds_no_state(self, stiff_state, counts, bordered):
        t1, p, g = stiff_state
        state = system.SurfaceState(t1, p, g)
        counts["states"].clear()
        cfg = NewtonConfig(linear_solver="krylov")
        if bordered:
            c = cosine_coefficients(t1, g)
            newton._bordered_solver(state, c, 1.0, cfg)(state.residual, 0.0)
        else:
            newton.solve_newton_step(state, state.residual, p, g, cfg)
        assert counts["states"] == []
        assert counts["matvecs"] > 10

    def test_dense_step_builds_no_state(self, fixture_state, counts):
        p, g = fixture_state.params, fixture_state.grid
        t1 = self.perturbed(fixture_state.t1, g)
        state = system.SurfaceState(t1, p, g)
        counts["states"].clear()
        newton.solve_newton_step(state, state.residual, p, g,
                                 NewtonConfig(linear_solver="dense"))
        assert counts["states"] == []
        # the dense Jacobian is assembled from the state's coefficient
        # spectra, with no Jacobian application on basis traces
        assert counts["matvecs"] == 0

    def test_one_state_per_residual_evaluation(self, stiff_state, counts):
        # newton_solve builds one state for the initial iterate and one for
        # each damped candidate that passes the alpha-range test; every
        # lambda, the initial iterate's included, is read off its state
        # once, and build_solution reads the converged state's residual; no
        # state keeps the level fields its lambda was read from
        t1, p, g = stiff_state
        sol = newton_solve(t1, p, g, NewtonConfig())
        assert len(sol.norm_history) > 1
        assert counts["matvecs"] > 10
        assert counts["alpha_passes"] >= len(sol.norm_history) - 1
        assert len(counts["states"]) == 1 + counts["alpha_passes"]
        assert counts["lambda_reads"] == counts["states"]
        assert not any("level_fields" in vars(s) for s in counts["states"])

    def test_one_state_per_corrector_candidate(self, counts):
        # the dense pseudo-arclength corrector moves alpha, and still builds
        # one state per candidate in the alpha range and reads its lambda once
        g = make_grid(256.0, 512)
        base = BaseParams(0.0, 0.5)
        (t_a, p_a), (t_b, p_b) = (init_small(e, base, g) for e in (0.02, 0.03))
        c = cosine_coefficients(t_b, g) - cosine_coefficients(t_a, g)
        c_alpha = p_b.alpha - p_a.alpha
        sol = newton_solve(t_b, p_b, g, NewtonConfig(), tangent=(c, c_alpha))
        assert sol.params.alpha != p_b.alpha
        assert len(counts["states"]) == 1 + counts["alpha_passes"]
        assert counts["lambda_reads"] == counts["states"]


class TestDenseJacobian:
    """The Jacobian assembled from coefficient spectra is the operator that
    jacobian_apply applies, column by column."""

    @pytest.mark.parametrize("n,half_length", [(16, 8.0), (384, 40.0), (1024, 64.0)])
    @pytest.mark.parametrize("eps1", [0.0, 0.5])
    @pytest.mark.parametrize("gamma", [-0.3, 0.0, 0.4])
    def test_matches_basis_columns(self, gamma, eps1, n, half_length):
        g = make_grid(half_length, n)
        state = crest_state(g, gamma, eps1)
        expected = reference_dense_jacobian(state, state.params, g)
        jac = newton.dense_jacobian(state, state.params, g)
        assert jac.shape == (g.n_modes, g.n_modes)
        assert np.max(np.abs(jac - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_memory_is_a_few_mode_by_mode_arrays(self):
        # at gamma != 0, so the a3 dtn(a4 .) product is formed too
        g = make_grid(128.0, 2048)
        state = crest_state(g, 0.4, 0.5)
        state.coefficients              # cached before the measurement
        tracemalloc.start()
        try:
            newton.dense_jacobian(state, state.params, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * g.n_modes ** 2


class TestDenseStep:
    """The bordered matrix is assembled in place and LU-factored where it
    stands, with the operation order of a term-by-term assembly."""

    @staticmethod
    def _border(state):
        g = state.grid
        return (cosine_coefficients(state.alpha_derivative, g),
                cosine_coefficients(state.t1, g), 0.3)

    @pytest.mark.parametrize("n,half_length", [(256, 32.0), (1024, 64.0)])
    @pytest.mark.parametrize("gamma", [0.0, 0.4])
    def test_matches_blockwise_oracle_bit_for_bit(self, gamma, n, half_length,
                                                  monkeypatch):
        g = make_grid(half_length, n)
        state = crest_state(g, gamma, 0.5)
        b, c, c_alpha = self._border(state)
        seen = []

        def recording_lu_factor(a, **kwargs):
            matrix = a.copy()
            lu, piv = lu_factor(a, **kwargs)
            seen.append((matrix, lu, piv, np.shares_memory(lu, a)))
            return lu, piv

        monkeypatch.setattr(newton, "lu_factor", recording_lu_factor)
        newton._bordered_solver(state, c, c_alpha, NewtonConfig(linear_solver="dense"))(
            state.residual, 0.0)
        (matrix, lu, piv, in_place), = seen
        lu_ref, piv_ref = blockwise_bordered_lu(state, b, c, c_alpha)
        assert in_place
        assert matrix.shape == (g.n_modes + 1,) * 2
        assert matrix[:-1, -1].tobytes() == b.tobytes()
        assert matrix[-1].tobytes() == np.append(c, c_alpha).tobytes()
        assert np.array_equal(lu, lu_ref) and np.array_equal(piv, piv_ref)
        np.testing.assert_array_equal(matrix[:-1, :-1],
                                      newton.dense_jacobian(state, state.params, g))

    def test_peak_memory_of_one_step(self):
        g = make_grid(64.0, 1024)
        state = crest_state(g, 0.0, 0.5)
        _, c, c_alpha = self._border(state)
        state.coefficients              # cached before the measurement
        tracemalloc.start()
        try:
            newton._bordered_solver(state, c, c_alpha, NewtonConfig(linear_solver="dense"))(
                state.residual, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * (g.n_modes + 1) ** 2


class TestKrylovStep:
    @staticmethod
    def _state(case):
        if case == "fixture-35":
            sol, _, _ = load_solution(FIXTURES / "point_00035.json")
            return system.SurfaceState(TestStateReuse.perturbed(sol.t1, sol.grid),
                                       sol.params, sol.grid)
        return crest_state(make_grid(64.0, 1024), 0.4, 0.5)

    @pytest.mark.parametrize("case", ["fixture-35", "crest-gamma-0.4"])
    def test_auto_step_at_n1024_matches_dense_solve(self, case):
        # N = 1024 is above DENSE_MAX_N, so "auto" takes the Krylov step;
        # with a nonzero border row and n_val it must solve the bordered
        # system that the dense oracle solves
        state = self._state(case)
        p, g = state.params, state.grid
        assert g.n_points == 1024 and not newton._use_dense(NewtonConfig(), g)
        b = cosine_coefficients(state.alpha_derivative, g)
        c, c_alpha, n_val = cosine_coefficients(state.t1, g), 0.3, 0.1
        da, d_alpha = newton._bordered_solver(state, c, c_alpha, NewtonConfig())(
            state.residual, n_val)
        x = np.append(da, d_alpha)
        rhs = -np.append(cosine_coefficients(state.residual, g), n_val)
        expected = np.linalg.solve(bordered_matrix(state, b, c, c_alpha), rhs)
        assert np.linalg.norm(x - expected) <= 1e-9 * np.linalg.norm(expected)
        # the matrix-free residual meets the GMRES tolerance, up to the
        # rounding of evaluating it once more
        jx = cosine_coefficients(
            system.jacobian_apply(state, values_from_cosine(da, g), p, g), g)
        defect = np.append(jx + b * d_alpha, c @ da + c_alpha * d_alpha) - rhs
        assert np.linalg.norm(defect) <= 2 * newton.KRYLOV_RTOL * np.linalg.norm(rhs)

    @pytest.mark.parametrize("index", [44, 46])
    def test_principal_symbol_preconditioner_converges_in_one_cycle(self, index,
                                                                    monkeypatch):
        # fixture states 44 and 46 (N = 4096, 8192) carry the cut's stiffest
        # crests; inverting the whole principal symbol takes 13 and 14
        # applications, within one restart cycle, where freezing c alone took
        # 24 and 25, and H with the wrong sign 32 and 41
        sol, _, _ = load_solution(FIXTURES / f"point_{index:05d}.json")
        p, g = sol.params, sol.grid
        state = system.SurfaceState(TestStateReuse.perturbed(sol.t1, g), p, g)
        applied = []

        def counting_apply(*args):
            applied.append(1)
            return system.jacobian_apply(*args)

        monkeypatch.setattr(newton, "jacobian_apply", counting_apply)
        newton.solve_newton_step(state, state.residual, p, g,
                                 NewtonConfig(linear_solver="krylov"))
        assert len(applied) <= newton.KRYLOV_RESTART + 1

    def test_stagnating_solve_fails_within_the_cap(self, monkeypatch):
        # a zero border row (c = 0, c_alpha = 0) with n_val = 1 leaves the
        # bordered system without a solution, so GMRES cannot converge
        g = make_grid(128.0, 2048)
        state = crest_state(g, 0.0, 0.5)
        applied = []

        def counting_apply(*args):
            applied.append(1)
            return system.jacobian_apply(*args)

        monkeypatch.setattr(newton, "jacobian_apply", counting_apply)
        step = newton._bordered_solver(state, np.zeros(g.n_modes), 0.0,
                                       NewtonConfig(linear_solver="krylov"))
        with pytest.raises(newton.SingularLinearSolve, match="GMRES"):
            step(state.residual, 1.0)
        # it fails fast: at most 15 restarts, each one residual and at most
        # 20 inner applications, plus the initial residual
        assert len(applied) <= 15 * 21 + 1

    def test_preconditioner_finite_where_principal_coefficient_changes_sign(self):
        g = make_grid(16.0, 512)
        t1 = 2.0 / np.cosh(g.x) ** 2
        p = make_params(0.0, 0.5, 0.9)
        state = system.SurfaceState(t1, p, g)
        principal = state.stag * (1.0 + state.w1y)
        assert np.min(principal) < 0.0 < np.max(principal)
        precondition = newton._preconditioner(state)
        rng = np.random.default_rng(11)
        out = precondition(rng.standard_normal(g.n_modes))
        assert out.shape == (g.n_modes,)
        assert np.all(np.isfinite(out))
