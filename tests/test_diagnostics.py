import numpy as np
import pytest

from ehdsolitary import (
    DegenerateJacobian,
    flow_force,
    flow_force_profile,
    flux_identity_check,
    make_grid,
    make_params,
    nodal_check,
    physical_profile,
    prop65_check,
    trivial_flow_force,
)
from ehdsolitary.diagnostics import (
    asymptotic_field_deviation,
    bernoulli_field_residual,
    full_report,
    gamma_field_arrays,
    hard_violations,
    kinematic_residual,
)
from ehdsolitary.model import WaveSolution
from ehdsolitary.newton import build_solution
from ehdsolitary.spectral import dtn_multiplier


def trivial_solution(gamma, eps1, alpha, L=20.0, n=64):
    g = make_grid(L, n)
    return build_solution(np.zeros(n), make_params(gamma, eps1, alpha), g, 1e-12)


def synthetic_solution(t1, gamma, eps1, alpha, L, n):
    """WaveSolution wrapper for non-solution traces (detection-path tests)."""
    from ehdsolitary.model import amplitude_of, tail_of
    g = make_grid(L, n)
    p = make_params(gamma, eps1, alpha)
    return WaveSolution(params=p, grid=g, t1=t1, residual_norm=np.inf,
                        amplitude=amplitude_of(t1, g), tail=tail_of(t1, g))


class TestFieldsOnGamma:
    def test_trivial_fields(self):
        sol = trivial_solution(0.7, 0.5, 1.0)
        u, v, e1, e2 = gamma_field_arrays(sol)
        # u = 1 independently of the vorticity at the uniform stream
        assert np.max(np.abs(u - 1.0)) < 1e-14
        assert np.max(np.abs(v)) < 1e-14
        assert np.max(np.abs(e1)) < 1e-14
        assert np.max(np.abs(e2 - 1.0)) < 1e-14

    def test_bernoulli_identity_through_fields(self, small_wave):
        assert bernoulli_field_residual(small_wave) < 1e-8

    def test_kinematic_orthogonality(self, small_wave):
        assert kinematic_residual(small_wave) < 1e-9

    def test_rotational_wave_identities(self, rotational_wave):
        assert bernoulli_field_residual(rotational_wave) < 1e-8
        assert kinematic_residual(rotational_wave) < 1e-9

    def test_elevation_wave_signs(self, small_wave):
        # downstream of the crest the vertical velocity is negative and the
        # horizontal electric component positive
        u, v, e1, e2 = gamma_field_arrays(small_wave)
        g = small_wave.grid
        sig = (g.x > 0) & (np.abs(small_wave.t1) > 1e-8)
        assert np.all(v[sig] < 0)
        assert np.all(e1[sig] > 0)

    def test_asymptotic_fields_decay(self, small_wave):
        assert asymptotic_field_deviation(small_wave) \
            <= max(10.0 * small_wave.tail, 1e-9)

    def test_degenerate_jacobian_raises(self):
        g = make_grid(np.pi * 4, 64)
        k = g.wavenumbers[1]
        t1 = -np.cos(k * g.x) / dtn_multiplier(np.array([k]))[0]
        sol = synthetic_solution(t1, 0.0, 0.5, 1.0, np.pi * 4, 64)
        with pytest.raises(DegenerateJacobian):
            gamma_field_arrays(sol)


class TestFlowForce:
    @pytest.mark.parametrize("gamma,eps1,alpha",
                             [(0.0, 0.5, 1.0), (-0.4, 0.0, 0.7), (0.6, 1.2, 2.0)])
    def test_trivial_closed_form(self, gamma, eps1, alpha):
        sol = trivial_solution(gamma, eps1, alpha)
        expected = gamma ** 2 / 3.0 - gamma + alpha / 2.0 + 1.0 + eps1
        assert trivial_flow_force(sol.params) == pytest.approx(expected, abs=1e-15)
        for x in (0.0, -5.0, 7.5):
            assert flow_force(sol, x) == pytest.approx(expected, abs=1e-12)

    def test_reference_value_matches_unit_depth_force(self):
        sol = trivial_solution(0.0, 0.5, 1.0)
        from ehdsolitary import shat
        assert flow_force(sol, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert flow_force(sol, 0.0) == pytest.approx(shat(1.0, sol.params), abs=1e-12)

    def test_invariance_across_stations(self, small_wave):
        g = small_wave.grid
        s = flow_force_profile(small_wave, check=True)
        idx = np.linspace(0, g.n_points - 1, 9).astype(int)
        ref = s[g.n_points // 2]
        spread = np.max(np.abs(s[idx] - ref)) / abs(ref)
        assert spread < 1e-6

    def test_invariance_rotational(self, rotational_wave):
        g = rotational_wave.grid
        s = flow_force_profile(rotational_wave, check=True)
        idx = np.linspace(0, g.n_points - 1, 9).astype(int)
        ref = s[g.n_points // 2]
        assert np.max(np.abs(s[idx] - ref)) / abs(ref) < 1e-6

    def test_station_outside_box_rejected(self, small_wave):
        with pytest.raises(ValueError, match="outside"):
            flow_force(small_wave, 1e9)

    def test_quadrature_warning_path(self, small_wave):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flow_force_profile(small_wave, n_nodes=32, check=True)  # converged: no warning


class TestFluxIdentity:
    def test_trivial_both_sides_zero(self):
        rep = flux_identity_check(trivial_solution(0.3, 0.4, 1.0))
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0

    def test_small_wave_balances(self, small_wave):
        rep = flux_identity_check(small_wave)
        assert rep.rel_gap < max(1e-4, 10.0 * small_wave.tail)
        assert rep.advective_positive
        assert rep.advective > 0

    def test_rotational_wave_balances(self, rotational_wave):
        rep = flux_identity_check(rotational_wave)
        assert rep.rel_gap < max(1e-4, 10.0 * rotational_wave.tail)
        assert rep.advective > 0


class TestNodal:
    def test_initializer_profile_passes(self):
        from ehdsolitary import BaseParams, init_small
        g = make_grid(256.0, 512)
        t1, p = init_small(0.01, BaseParams(0.0, 0.5), g)
        sol = synthetic_solution(t1, 0.0, 0.5, p.alpha, 256.0, 512)
        rep = nodal_check(sol)
        assert rep.passed
        assert rep.x_tail > 0

    def test_converged_wave_passes(self, small_wave):
        assert nodal_check(small_wave).passed

    def test_depression_profile_fails_with_located_violation(self):
        g = make_grid(40.0, 128)
        t1 = -0.1 / np.cosh(0.5 * g.x) ** 2
        sol = synthetic_solution(t1, 0.0, 0.5, 1.0, 40.0, 128)
        rep = nodal_check(sol)
        assert not rep.passed
        assert rep.violations
        heights = {v[0] for v in rep.violations}
        assert 1.0 in heights
        assert all(0 < v[1] < rep.x_tail for v in rep.violations)


class TestPhysicalProfile:
    def test_trivial_straight_line(self):
        sol = trivial_solution(0.0, 0.5, 1.0)
        rep = physical_profile(sol)
        X = np.array([pt.X for pt in rep.points])
        Y = np.array([pt.Y for pt in rep.points])
        assert np.max(np.abs(X - sol.grid.x)) < 1e-12
        assert np.max(np.abs(Y - 1.0)) == 0.0
        assert not rep.overhang
        assert not rep.self_intersecting

    def test_small_wave_single_valued_graph(self, small_wave):
        rep = physical_profile(small_wave)
        assert not rep.overhang
        assert rep.min_xi_prime > 0
        X = np.array([pt.X for pt in rep.points])
        assert np.all(np.diff(X) > 0)
        crest = rep.points[small_wave.grid.n_points // 2]
        assert crest.Y == pytest.approx(1.0 + small_wave.amplitude, abs=1e-14)

    def test_synthetic_overhang_detected(self):
        g = make_grid(np.pi * 8, 256)
        k = g.wavenumbers[4]
        # eta_y = 1 + 2 cos(kx) dips to -1: the map folds over
        t1 = 2.0 * np.cos(k * g.x) / dtn_multiplier(np.array([k]))[0]
        sol = synthetic_solution(t1, 0.0, 0.5, 1.0, np.pi * 8, 256)
        rep = physical_profile(sol)
        assert rep.overhang
        assert rep.min_xi_prime < 0


class TestLaminarBounds:
    def test_trivial_negative_vorticity_passes(self):
        rep = prop65_check(trivial_solution(-0.3, 0.5, 1.0))
        by_name = {c.name: c for c in rep.checks}
        upper = by_name["psi_y upper (gamma<=0)"]
        assert upper.status == "pass"
        assert upper.worst_margin == pytest.approx(0.15, abs=1e-12)

    def test_potential_derivative_degenerate_equality(self, small_wave):
        rep = prop65_check(small_wave)
        assert rep.checks[0].name == "theta_y vs 1"
        assert rep.checks[0].status == "degenerate-equality"
        assert rep.checks[0].worst_margin == 0.0

    def test_zero_vorticity_stream_degeneracy(self, small_wave):
        rep = prop65_check(small_wave)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["psi_y upper (gamma<=0)"].status == "degenerate-equality"
        assert by_name["psi_y lower (gamma>=0)"].status == "pass"
        assert not rep.failed

    def test_positive_vorticity_lower_bound(self, rotational_wave):
        rep = prop65_check(rotational_wave)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["psi_y lower (gamma>=0)"].status == "pass"
        assert not rep.failed


class TestFullReport:
    def test_converged_wave_clean(self, small_wave):
        rep = full_report(small_wave)
        assert hard_violations(rep) == []
        assert rep["froude_bound_ok"]
        assert rep["nodal"]["passed"]
        assert not rep["profile"]["overhang"]

    def test_corrupted_wave_flagged(self, small_wave):
        t1 = small_wave.t1.copy()
        t1 += 1e-3 * np.cos(small_wave.grid.wavenumbers[3] * small_wave.grid.x)
        bad = WaveSolution(params=small_wave.params, grid=small_wave.grid,
                           t1=t1, residual_norm=small_wave.residual_norm,
                           amplitude=small_wave.amplitude, tail=small_wave.tail)
        rep = full_report(bad)
        bad_keys = hard_violations(rep)
        assert "residual_ok" in bad_keys
        assert "bernoulli_ok" in bad_keys


class TestLaminarDepthCrossCheck:
    @pytest.mark.parametrize("d", [0.6, 0.85, 1.0, 1.25, 1.8])
    def test_uniform_depth_trace_reproduces_laminar_force(self, d):
        # the constant trace t1 = d - 1 is the depth-d uniform stream in
        # unit-strip variables (the eliminated stream trace reproduces the
        # laminar profile exactly), so the flow-force integral must equal
        # the closed-form laminar value at depth d
        from ehdsolitary import shat
        n = 64
        gamma, eps1, alpha = 0.35, 0.6, 0.9
        sol = synthetic_solution(np.full(n, d - 1.0), gamma, eps1, alpha,
                                 20.0, n)
        assert flow_force(sol, 0.0, check=True) == \
            pytest.approx(shat(d, sol.params), abs=1e-12)
