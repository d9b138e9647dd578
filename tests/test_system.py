import numpy as np
import pytest

from ehdsolitary import (
    dispersion_root,
    jacobian_apply,
    lambda_min,
    linear_multiplier,
    make_grid,
    make_params,
    residual,
)
from ehdsolitary.spectral import dtn, dtn_multiplier
from ehdsolitary.system import eliminated_t2
from helpers import random_even_trace

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
