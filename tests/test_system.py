import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ehdsolitary import (
    dispersion_root,
    find_dcr,
    find_dstar,
    jacobian_apply,
    lambda_min,
    linear_multiplier,
    make_grid,
    make_params,
    residual,
)
from ehdsolitary.io import load_solution
from ehdsolitary.spectral import INTERIOR_LEVELS, ddx, dtn, dtn_multiplier
from ehdsolitary.system import NonFiniteTrace, SurfaceState, eliminated_t2
from helpers import (
    count_transforms,
    crest_state,
    harmonic_fields,
    random_even_trace,
    reference_alpha_derivative,
    reference_jacobian_apply,
    reference_lambda_min,
    reference_residual,
)

FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"

PARAM_GRID = [(g, e, a)
              for g in (-0.6, -0.2, 0.0, 0.3, 0.7)
              for e in (0.0, 0.25, 0.6, 1.0, 2.0)
              for a in (0.3, 0.8, 1.0, 1.7, 2.5)]


class TestAssembleTraces:
    """The eliminated stream trace t2 and its normal derivative, as the
    residual assembles them."""

    def test_trivial_flow(self):
        g = make_grid(10.0, 64)
        t2 = eliminated_t2(np.zeros(64), make_params(0.3, 0.5, 1.0))
        for arr in (t2, dtn(np.zeros(64), g), dtn(t2, g)):
            assert np.max(np.abs(arr)) == 0.0

    def test_constant_trace_elimination(self):
        t2 = eliminated_t2(np.full(64, 0.1), make_params(0.4, 0.0, 1.0))
        assert np.allclose(t2, -0.042, atol=1e-15)

    def test_irrotational_reduction(self):
        g = make_grid(10.0, 64)
        rng = np.random.default_rng(0)
        t1 = random_even_trace(g, rng, scale=0.1)
        t2 = eliminated_t2(t1, make_params(0.0, 0.7, 1.0))
        assert np.max(np.abs(t2)) == 0.0
        assert np.max(np.abs(dtn(t2, g))) == 0.0


class TestResidual:
    @pytest.mark.parametrize("gamma,eps1,alpha", PARAM_GRID)
    def test_trivial_residual_vanishes(self, gamma, eps1, alpha):
        g = make_grid(8.0, 32)
        r = residual(np.zeros(32), make_params(gamma, eps1, alpha), g)
        assert np.max(np.abs(r)) == 0.0

    def test_small_mode_matches_linear_multiplier(self):
        g = make_grid(np.pi * 4, 128)
        p = make_params(0.2, 0.3, 1.0)
        k = g.wavenumbers[3]
        delta = 1e-6
        r = residual(delta * np.cos(k * g.x), p, g)
        expected = linear_multiplier(k, p) * delta * np.cos(k * g.x)
        rel = np.max(np.abs(r - expected)) / np.max(np.abs(expected))
        assert rel < 1e-4

    def test_converged_small_wave_residual(self, small_wave):
        assert small_wave.residual_norm <= 1e-10

    def test_even_trace_gives_even_residual(self):
        g = make_grid(10.0, 64)
        p = make_params(0.3, 0.4, 0.9)
        rng = np.random.default_rng(2)
        t1 = random_even_trace(g, rng, scale=0.05)
        r = residual(t1, p, g)
        n = g.n_points
        assert np.max(np.abs(r - r[(-np.arange(n)) % n])) < 1e-12


class TestLinearMultiplier:
    def test_long_wave_value(self):
        p = make_params(0.0, 0.5, 1.0)
        assert linear_multiplier(0.0, p) == pytest.approx(-1.0, abs=1e-14)

    def test_bifurcation_point(self):
        p = make_params(0.2, 0.3, 1.1)   # alpha = alpha_cr
        assert abs(p.alpha - p.alpha_cr) < 1e-15
        assert linear_multiplier(0.0, p) == pytest.approx(0.0, abs=1e-14)

    def test_root_by_bisection_oracle(self):
        # oracle: bisection on k coth k = (gamma + alpha)/(1 + eps1)
        p = make_params(0.2, 0.3, 1.3)
        target = (p.gamma + p.alpha) / (1.0 + p.eps1)
        lo, hi = 1e-12, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if dtn_multiplier(np.array([mid]))[0] < target:
                lo = mid
            else:
                hi = mid
        k_star = 0.5 * (lo + hi)
        assert k_star == pytest.approx(0.69, abs=5e-3)
        assert dispersion_root(p) == pytest.approx(k_star, abs=1e-10)
        assert abs(linear_multiplier(dispersion_root(p), p)) < 1e-12

    @pytest.mark.parametrize("gamma,eps1,alpha", PARAM_GRID)
    def test_root_structure_matches_regime(self, gamma, eps1, alpha):
        p = make_params(gamma, eps1, alpha)
        root = dispersion_root(p)
        ks = np.linspace(0.0, 50.0, 2000)
        m = linear_multiplier(ks, p)
        if abs(p.alpha - p.alpha_cr) < 1e-9:
            # boundary case: the multiplier vanishes at k = 0 only
            assert abs(m[0]) < 1e-12
            assert np.all(m[1:] < 0)
        elif p.alpha < p.alpha_cr:
            assert root is None
            assert np.all(m < 0)
        else:
            assert root is not None and root > 0
            # single sign change: positive before the root, negative after
            assert np.all(m[ks < root * 0.999] > 0)
            assert np.all(m[ks > root * 1.001] < 0)


class TestJacobianApply:
    def test_action_on_modes_at_trivial_state(self):
        g = make_grid(6.0, 64)
        p = make_params(0.3, 0.4, 1.0)
        for n in (0, 1, 5, 17):
            k = g.wavenumbers[n]
            dt = np.cos(k * g.x)
            out = jacobian_apply(np.zeros(64), dt, p, g)
            assert np.max(np.abs(out - linear_multiplier(k, p) * dt)) < 1e-12

    def test_zero_direction(self):
        g = make_grid(6.0, 64)
        rng = np.random.default_rng(3)
        t1 = random_even_trace(g, rng, scale=0.05)
        out = jacobian_apply(t1, np.zeros(64), make_params(0.1, 0.2, 0.8), g)
        assert np.max(np.abs(out)) == 0.0

    def test_linearity(self):
        g = make_grid(6.0, 64)
        p = make_params(0.25, 0.5, 0.9)
        rng = np.random.default_rng(4)
        t1 = random_even_trace(g, rng, scale=0.05)
        u = random_even_trace(g, rng, scale=1.0)
        v = random_even_trace(g, rng, scale=1.0)
        lhs = jacobian_apply(t1, 2.0 * u - 3.0 * v, p, g)
        rhs = 2.0 * jacobian_apply(t1, u, p, g) - 3.0 * jacobian_apply(t1, v, p, g)
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(scale, 1.0)

    @pytest.mark.parametrize("h", [1e-4, 1e-5])
    def test_centered_difference_oracle(self, h):
        g = make_grid(6.0, 64)
        p = make_params(0.25, 0.5, 0.9)
        rng = np.random.default_rng(5)
        t1 = random_even_trace(g, rng, scale=0.05)
        dt = random_even_trace(g, rng, scale=1.0)
        fd = (residual(t1 + h * dt, p, g) - residual(t1 - h * dt, p, g)) / (2 * h)
        err = np.max(np.abs(fd - jacobian_apply(t1, dt, p, g)))
        # second-order remainder ~ C h^2 with C = O(1) third derivative
        assert err < 50.0 * h ** 2 + 1e-10

    def test_batched_matches_loop(self):
        g = make_grid(6.0, 32)
        p = make_params(0.2, 0.1, 0.7)
        rng = np.random.default_rng(6)
        t1 = random_even_trace(g, rng, scale=0.05)
        batch = np.stack([random_even_trace(g, rng) for _ in range(4)])
        out = jacobian_apply(t1, batch, p, g)
        for i in range(4):
            single = jacobian_apply(t1, batch[i], p, g)
            assert np.max(np.abs(out[i] - single)) < 1e-13


class TestSurfaceState:
    """The residual, alpha derivative and linearization derived from one
    SurfaceState against the oracles that re-derive the base state."""

    G = make_grid(12.0, 128)

    @staticmethod
    def close(got, ref):
        return np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.fixture(params=[0.0, 0.4, -0.3])
    def case(self, request):
        gamma = request.param
        p = make_params(gamma, 0.5, 0.8 * (1.5 - gamma))      # alpha below alpha_cr
        rng = np.random.default_rng(11)
        t1 = random_even_trace(self.G, rng, scale=0.2)
        batch = np.stack([random_even_trace(self.G, rng, scale=0.2) for _ in range(3)])
        return p, t1, batch, rng

    def test_residual_and_alpha_derivative(self, case):
        p, t1, batch, _ = case
        for base in (t1, batch):
            state = SurfaceState(base, p, self.G)
            assert self.close(state.residual, reference_residual(base, p, self.G))
            assert self.close(residual(base, p, self.G),
                              reference_residual(base, p, self.G))
            assert self.close(state.alpha_derivative,
                              reference_alpha_derivative(base, p, self.G))

    def test_jacobian_apply_from_trace_and_state(self, case):
        p, t1, batch, rng = case
        dt = random_even_trace(self.G, rng)
        dts = np.stack([random_even_trace(self.G, rng) for _ in range(3)])
        for base, direction in ((t1, dt), (t1, dts), (batch, dts)):
            ref = reference_jacobian_apply(base, direction, p, self.G)
            for given in (base, SurfaceState(base, p, self.G)):
                assert self.close(jacobian_apply(given, direction, p, self.G), ref)

    def test_state_of_reuses_only_a_matching_state(self, case):
        p, t1, _, _ = case
        state = SurfaceState(t1, p, self.G)
        assert SurfaceState.of(state, p, self.G) is state
        with pytest.raises(ValueError, match="other parameters"):
            SurfaceState.of(state, p.with_alpha(0.5 * p.alpha), self.G)
        with pytest.raises(ValueError, match="another grid"):
            SurfaceState.of(state, p, make_grid(12.0, 128))

    def test_non_finite_trace_rejected(self):
        t1 = np.zeros(self.G.n_points)
        t1[5] = np.nan
        with pytest.raises(NonFiniteTrace):
            SurfaceState(t1, make_params(0.0, 0.5, 1.0), self.G)

    def test_level_fields_are_the_harmonic_fields(self, case):
        # the surface row is the state's, the interior rows its spectrum's
        # times the grid's cached symbols; the oracle builds them afresh
        p, t1, _, _ = case
        state = SurfaceState(t1, p, self.G)
        ys = (1.0,) + INTERIOR_LEVELS
        for got, ref in zip(state.level_fields, harmonic_fields(t1, self.G, ys)):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_monitors(self, case):
        p, t1, _, _ = case
        state = SurfaceState(t1, p, self.G)
        grad = np.sqrt(ddx(t1, self.G) ** 2 + (1.0 + dtn(t1, self.G)) ** 2)
        assert state.monitors == (np.min(1.0 + p.eps1 - 2.0 * p.alpha * t1),
                                  np.min(grad), np.max(grad))


class TestLambdaMin:
    def test_trivial_with_field(self):
        g = make_grid(8.0, 32)
        assert lambda_min(np.zeros(32), make_params(0.0, 0.5, 1.0), g) \
            == pytest.approx(9.0, abs=1e-12)

    def test_trivial_without_field(self):
        g = make_grid(8.0, 32)
        assert lambda_min(np.zeros(32), make_params(0.0, 0.0, 1.0), g) \
            == pytest.approx(4.0, abs=1e-12)

    def test_small_amplitude_continuity(self):
        # lambda stays near its uniform-stream value as amplitude -> 0
        from ehdsolitary import BaseParams, NewtonConfig, init_small, newton_solve
        base = BaseParams(0.0, 0.5)
        g = make_grid(256.0, 512)
        deviations = []
        for eps in (0.02, 0.01, 0.005):
            t0, p = init_small(eps, base, g)
            sol = newton_solve(t0, p, g, NewtonConfig())
            lam = lambda_min(sol.t1, p, g)
            deviations.append(abs(lam - 4.0 * (1 + p.eps1) ** 2))
        assert deviations[0] < 1.0
        assert deviations[0] > deviations[1] > deviations[2]
        # O(eps): halving eps roughly halves the deviation
        assert deviations[0] / deviations[2] > 2.5

    @pytest.mark.parametrize("eps1", [0.0, 0.5])
    @pytest.mark.parametrize("gamma", [-0.3, 0.0, 0.4])
    @pytest.mark.parametrize("n,half_length", [(16, 8.0), (1024, 64.0)])
    def test_state_and_module_equal_the_oracle(self, gamma, eps1, n, half_length):
        g = make_grid(half_length, n)
        state = crest_state(g, gamma, eps1)
        p = state.params
        expected = reference_lambda_min(state.t1, p, g)
        assert state.lambda_min == expected
        assert lambda_min(state.t1, p, g) == expected

    @pytest.mark.parametrize("index", [0, 20, 35, 44, 46, 50, 56])
    def test_module_is_the_state_lambda_on_bench_states(self, index):
        sol, _, _ = load_solution(FIXTURES / f"point_{index:05d}.json")
        state = SurfaceState(sol.t1, sol.params, sol.grid)
        assert lambda_min(sol.t1, sol.params, sol.grid) == state.lambda_min

    def test_non_finite_trace_gives_nan(self):
        # no NonFiniteTrace: the Newton loop reads nan as "not > 0"
        g = make_grid(8.0, 32)
        for bad in (np.nan, np.inf, -np.inf):
            t1 = np.zeros(32)
            t1[3] = bad
            with np.errstate(invalid="ignore"):
                assert np.isnan(lambda_min(t1, make_params(0.0, 0.5, 1.0), g))


class TestTransformCounts:
    """numpy.fft calls per evaluation: stacked rows, one call each way."""

    G = make_grid(64.0, 1024)

    def test_state_and_its_lambda(self, monkeypatch):
        calls = count_transforms(monkeypatch)
        state = crest_state(self.G, 0.4, 0.5)
        assert calls == {"rfft": 1, "irfft": 1}
        state.lambda_min
        state.lambda_min
        assert calls == {"rfft": 1, "irfft": 2}

    def test_module_lambda_min(self, monkeypatch):
        # the state's surface transform pair, then its interior inverse
        state = crest_state(self.G, 0.4, 0.5)
        calls = count_transforms(monkeypatch)
        lambda_min(state.t1, state.params, self.G)
        assert calls == {"rfft": 1, "irfft": 2}

    @pytest.mark.parametrize("gamma", [0.0, -0.3, 0.4])
    def test_jacobian_apply(self, monkeypatch, gamma):
        state = crest_state(self.G, gamma, 0.5)
        state.coefficients
        dt = random_even_trace(self.G, np.random.default_rng(14))
        calls = count_transforms(monkeypatch)
        jacobian_apply(state, dt, state.params, self.G)
        assert calls == {"rfft": 1, "irfft": 1}


class TestJacobianSkipAtZeroGamma:
    @pytest.mark.parametrize("eps1", [0.0, 0.5])
    def test_equals_the_unskipped_form(self, eps1):
        g = make_grid(64.0, 1024)
        state = crest_state(g, 0.0, eps1)
        rng = np.random.default_rng(15)
        for dt in (random_even_trace(g, rng),
                   np.stack([random_even_trace(g, rng) for _ in range(3)])):
            a0, a1, a2, a3, a4 = state.coefficients
            assert not np.any(a4)
            full = a0 * dt + a1 * dtn(dt, g) + a2 * ddx(dt, g) + a3 * dtn(a4 * dt, g)
            assert np.array_equal(jacobian_apply(state, dt, state.params, g), full)


_LAZY_ROOTS_SCRIPT = """
import sys
import ehdsolitary, ehdsolitary.cli
from ehdsolitary import (BaseParams, ContinuationConfig, continue_branch,
                         dispersion_root, find_dcr, find_dstar, make_grid,
                         make_params)
from ehdsolitary.cli import _auto_half_length

branch = continue_branch(BaseParams(0.0, 0.5),
                         make_grid(_auto_half_length(1e-3, 0.5), 1024),
                         ContinuationConfig(max_points=3))
assert len(branch.points) == 3, branch.stop_reason
assert "scipy.optimize" not in sys.modules, "the solver path loaded scipy.optimize"
p, q = make_params(0.2, 0.3, 1.5), make_params(0.1, 0.5, 1.0)
depths = [find_dcr(q), find_dstar(q)]
assert "scipy.optimize" not in sys.modules, "the depth roots loaded scipy.optimize"
first = [dispersion_root(p)] + depths
assert "scipy.optimize" in sys.modules
again = [dispersion_root(p), find_dcr(q), find_dstar(q)]
print(" ".join(x.hex() for x in first), "|", " ".join(x.hex() for x in again))
"""


def test_solver_path_does_not_load_scipy_optimize():
    # a fresh interpreter: the package, the CLI module, a short branch run and
    # the two depth roots (numpy polynomial roots) leave scipy.optimize
    # unloaded; dispersion_root imports it on first use; every root finder
    # returns the same bits on every call
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _LAZY_ROOTS_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    first, again = run.stdout.split("|")
    assert first.split() == again.split()
    p, q = make_params(0.2, 0.3, 1.5), make_params(0.1, 0.5, 1.0)
    here = [dispersion_root(p), find_dcr(q), find_dstar(q)]
    assert first.split() == [x.hex() for x in here]


_LAZY_SCIPY_SCRIPT = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import ehdsolitary, ehdsolitary.cli
assert not scipy_modules(), scipy_modules()
from ehdsolitary import (BaseParams, NewtonConfig, OdeParams, bore_verdict,
                         full_report, init_small, integrate_orbit, make_grid,
                         make_params, newton_solve)
from ehdsolitary.io import load_solution

sol, _, _ = load_solution(sys.argv[1])
full_report(sol)
p_ode = OdeParams(0.0, 0.0)
integrate_orbit(p_ode.q0, 0.0, p_ode, 1e-2, 200)
assert not scipy_modules(), scipy_modules()
for alpha in (1.0, 1.5, 2.0):
    bore_verdict(make_params(0.0, 0.5, alpha))
assert ehdsolitary.cli.main(["conjugate", "--gamma", "0.3", "--eps1", "0.5",
                             "--alpha", "1.0"]) == 0
assert not scipy_modules(), scipy_modules()

g = make_grid(256.0, 512)
t0, p = init_small(0.01, BaseParams(0.0, 0.5), g)
newton_solve(t0, p, g, NewtonConfig(linear_solver="krylov"))
assert not scipy_modules(), scipy_modules()
newton_solve(t0, p, g, NewtonConfig())
loaded = scipy_modules()
assert "scipy.linalg" in loaded, loaded
assert not any(m.startswith(("scipy.sparse", "scipy.optimize")) for m in loaded), loaded
"""


def test_read_side_loads_no_scipy():
    # a fresh interpreter: importing the package and the CLI module, loading
    # and checking a solution, integrating an orbit, the bore verdict and the
    # conjugate command load no SciPy at all, and neither does a Krylov
    # solve; the first dense step loads scipy.linalg alone, no scipy.sparse
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    fixture = root / "bench" / "fixtures" / "point_00020.json"
    run = subprocess.run([sys.executable, "-c", _LAZY_SCIPY_SCRIPT, str(fixture)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
