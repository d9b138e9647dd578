import dataclasses
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ehdsolitary import diagnostics
from ehdsolitary import (
    DegenerateJacobian,
    flow_force_profile,
    flux_identity_check,
    lambda_min,
    make_grid,
    make_params,
    nodal_check,
    physical_profile,
    prop65_check,
)
from ehdsolitary.diagnostics import full_report, gamma_field_arrays, hard_violations
from ehdsolitary.io import load_solution
from ehdsolitary.model import WaveSolution
from ehdsolitary.newton import build_solution
from ehdsolitary.spectral import dtn, dtn_multiplier
from ehdsolitary.system import INTERIOR_LEVELS, SurfaceState

from helpers import (count_transforms, flow_force_all_stations, harmonic_fields,
                     reference_flow_force)

FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"

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


def unresolved_solution():
    """eta_y = 1 - 0.5 cos(k4 x) on the surface: 1/Z' decays so slowly in k
    that twice the grid still aliases the flow-force integrand."""
    g = make_grid(np.pi * 4, 64)
    k = g.wavenumbers[4]
    t1 = -0.5 * np.cos(k * g.x) / dtn_multiplier(np.array([k]))[0]
    return synthetic_solution(t1, 0.0, 0.5, 1.0, np.pi * 4, 64)


def field_identities(sol):
    """(Bernoulli, kinematic, far-field) sup-norms of the surface fields:
    u^2 + v^2 + eps1 (e1^2 + e2^2) + 2 alpha (eta - 1) - (1 + eps1); the
    orthogonality identities u eta_x - v eta_y and e1 eta_y + e2 eta_x; and
    |u - 1| + |v| + |e1| + |e2 - 1| over the outer 10% of the surface."""
    p, g = sol.params, sol.grid
    state = SurfaceState(sol.t1, p, g)
    eta_x, eta_y = state.w1x, 1.0 + state.w1y
    u, v, e1, e2 = gamma_field_arrays(sol)
    bern = u * u + v * v + p.eps1 * (e1 * e1 + e2 * e2) + 2.0 * p.alpha * sol.t1 \
        - (1.0 + p.eps1)
    kin = max(np.max(np.abs(u * eta_x - v * eta_y)),
              np.max(np.abs(e1 * eta_y + e2 * eta_x)))
    far = np.abs(g.x) >= 0.9 * g.half_length
    dev = np.abs(u - 1.0) + np.abs(v) + np.abs(e1) + np.abs(e2 - 1.0)
    return float(np.max(np.abs(bern))), float(kin), float(np.max(dev[far]))


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
        assert field_identities(small_wave)[0] < 1e-8

    def test_kinematic_orthogonality(self, small_wave):
        assert field_identities(small_wave)[1] < 1e-9

    def test_rotational_wave_identities(self, rotational_wave):
        bern, kin, _ = field_identities(rotational_wave)
        assert bern < 1e-8
        assert kin < 1e-9

    def test_elevation_wave_signs(self, small_wave):
        # downstream of the crest the vertical velocity is negative and the
        # horizontal electric component positive
        u, v, e1, e2 = gamma_field_arrays(small_wave)
        g = small_wave.grid
        sig = (g.x > 0) & (np.abs(small_wave.t1) > 1e-8)
        assert np.all(v[sig] < 0)
        assert np.all(e1[sig] > 0)

    def test_asymptotic_fields_decay(self, small_wave):
        assert field_identities(small_wave)[2] <= max(10.0 * small_wave.tail, 1e-9)

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
        s = flow_force_profile(sol)
        assert np.max(np.abs(s - expected)) < 1e-12
        assert np.max(np.abs(s - reference_flow_force(sol, 64))) < 1e-12

    def test_reference_value_matches_unit_depth_force(self):
        sol = trivial_solution(0.0, 0.5, 1.0)
        from ehdsolitary import shat
        at_crest = flow_force_profile(sol)[sol.grid.n_points // 2]     # x = 0
        assert at_crest == pytest.approx(2.0, abs=1e-12)
        assert at_crest == pytest.approx(shat(1.0, sol.params), abs=1e-12)

    def test_invariance_across_stations(self, small_wave):
        g = small_wave.grid
        s = flow_force_profile(small_wave)
        idx = np.linspace(0, g.n_points - 1, 9).astype(int)
        ref = s[g.n_points // 2]
        spread = np.max(np.abs(s[idx] - ref)) / abs(ref)
        assert spread < 1e-6

    def test_invariance_rotational(self, rotational_wave):
        g = rotational_wave.grid
        s = flow_force_profile(rotational_wave)
        idx = np.linspace(0, g.n_points - 1, 9).astype(int)
        ref = s[g.n_points // 2]
        assert np.max(np.abs(s[idx] - ref)) / abs(ref) < 1e-6

    @pytest.mark.parametrize("wave", ["small_wave", "rotational_wave"])
    def test_matches_quadrature_oracle(self, wave, request):
        sol = request.getfixturevalue(wave)
        s = flow_force_profile(sol)
        assert np.max(np.abs(s - reference_flow_force(sol, 64))) < 1e-12

    # state 56 is under-resolved at N = 8192
    @pytest.mark.parametrize("index,tol", [(0, 1e-12), (20, 1e-12), (35, 1e-12),
                                           (44, 1e-12), (46, 1e-12), (50, 1e-12),
                                           (56, 1e-8)])
    def test_bench_states_match_quadrature_oracle(self, index, tol):
        sol, _, _ = load_solution(FIXTURES / f"point_{index:05d}.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = flow_force_profile(sol)
        assert np.max(np.abs(s - reference_flow_force(sol, 64))) < tol

    def test_padding_check_is_quiet_when_resolved(self, small_wave):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flow_force_profile(small_wave)  # converged: no warning

    def test_padding_check_warns_when_unresolved(self):
        sol = unresolved_solution()
        with pytest.warns(RuntimeWarning, match="doubling the padding"):
            flow_force_profile(sol)
        # more padding converges to the quadrature
        fine = flow_force_all_stations(sol, 8)
        assert np.max(np.abs(fine - reference_flow_force(sol, 64))) < 1e-12

    @pytest.mark.parametrize("wave", [0, 20, 35, 44, 46, 50, 56, "small_wave",
                                      "rotational_wave", "unresolved"])
    def test_fold_matches_direct_evaluation(self, wave, request):
        # the profile folds the spectrum of the integrand on the finer grid
        # of its check; the direct evaluation on the coarser grid agrees
        if wave == "unresolved":
            sol = unresolved_solution()
            with pytest.warns(RuntimeWarning, match="doubling the padding"):
                s = flow_force_profile(sol)
        elif isinstance(wave, str):
            sol = request.getfixturevalue(wave)
            s = flow_force_profile(sol)
        else:
            sol, _, _ = load_solution(FIXTURES / f"point_{wave:05d}.json")
            s = flow_force_profile(sol)
        direct = flow_force_all_stations(sol, diagnostics.FLOW_FORCE_PAD)
        assert np.max(np.abs(s - direct)) <= 1e-14


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
        assert np.max(np.abs(rep.X - sol.grid.x)) < 1e-12
        assert np.max(np.abs(rep.Y - 1.0)) == 0.0
        assert not rep.overhang
        assert not rep.self_intersecting

    def test_small_wave_single_valued_graph(self, small_wave):
        rep = physical_profile(small_wave)
        assert not rep.overhang
        assert rep.min_xi_prime > 0
        assert np.all(np.diff(rep.X) > 0)
        crest_y = rep.Y[small_wave.grid.n_points // 2]
        assert crest_y == pytest.approx(1.0 + small_wave.amplitude, abs=1e-14)

    def test_synthetic_overhang_detected(self):
        g = make_grid(np.pi * 8, 256)
        k = g.wavenumbers[4]
        # eta_y = 1 + 2 cos(kx) dips to -1: the map folds over
        t1 = 2.0 * np.cos(k * g.x) / dtn_multiplier(np.array([k]))[0]
        sol = synthetic_solution(t1, 0.0, 0.5, 1.0, np.pi * 8, 256)
        rep = physical_profile(sol)
        assert rep.overhang
        assert rep.min_xi_prime < 0
        assert rep.self_intersecting

    @pytest.mark.parametrize("wave", ["small_wave", "rotational_wave"])
    def test_span_keeps_the_mass(self, wave, request):
        # X_x = eta_y, whose mean exceeds 1 by the mass over 2L: the profile
        # spans 2L - h plus the mass h sum(t1), and a decayed wave in its
        # box is no truncation symptom
        sol = request.getfixturevalue(wave)
        g = sol.grid
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = physical_profile(sol)
        span = 2.0 * g.half_length - g.spacing + g.spacing * np.sum(sol.t1)
        assert abs(rep.X[-1] - rep.X[0] - span) < 1e-9


class TestSelfIntersectionScan:
    @pytest.mark.parametrize("points,crosses", [
        ([(0, 0), (1, 0), (1, 1), (0.5, -1)], True),          # third crosses first
        ([(0, 0), (1, 1), (2, 0), (3, 1)], False),            # zigzag graph
        ([(0, 0), (2, 0), (2, 1), (1, 1), (1, 0)], False),    # touches, no crossing
        ([(0, 0), (1, 0), (0.5, 0.5), (0.5, -0.5)], True),
        ([(0, 0), (1, 0), (1, 1), (0.5, 1), (0.5, -1)], True),  # back across the start
        ([(0, 0), (1, 0), (0.2, 0)], False),                  # adjacent overlap only
        ([(0, 0)], False),
        ([(0, 0), (1, 1)], False),
    ])
    def test_small_polylines(self, points, crosses):
        X, Y = np.array(points, dtype=float).T
        assert diagnostics._self_intersection_scan(X, Y) is crosses

    @pytest.mark.parametrize("even_y", [False, True])
    def test_fold_far_from_the_crossing(self, even_y):
        # 16 000 segments folding over at |s| < 0.88: with an even Y the two
        # arms cross at s = +-1.915, 207 segments beyond the fold
        s = np.linspace(-40.0, 40.0, 16001)
        X = s - 2.0 * np.tanh(s)
        Y = 1.0 / np.cosh(s) if even_y else 0.05 * s
        assert diagnostics._self_intersection_scan(X, Y) is even_y

    def test_memory_is_linear_in_the_segments(self):
        # a spiral of triangles: 16 000 chords whose bounding boxes all meet,
        # so no block is pruned; an n x n scan would take 2 GB per array
        k = np.arange(16001)
        r, theta = 1.0 + 1e-4 * k, 2.0 * np.pi * k / 3.0
        tracemalloc.start()
        try:
            crosses = diagnostics._self_intersection_scan(r * np.cos(theta),
                                                          r * np.sin(theta))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not crosses
        assert peak <= 64 * 2 ** 20


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

    @pytest.mark.parametrize("gamma", [-0.3, 0.4])
    def test_stream_factor_is_zeta_y_plus_gamma_eta_eta_y(self, gamma):
        # the bounds read psi_y from SurfaceState.stream; the margins equal
        # those of the field formula psi_y = zeta_y + gamma eta eta_y
        eps1, g = 0.5, make_grid(40.0, 256)
        t1 = 0.05 / np.cosh(0.3 * g.x) ** 2
        sol = synthetic_solution(t1, gamma, eps1, 1.0, 40.0, 256)
        t2 = -gamma * t1 - 0.5 * gamma * t1 ** 2
        psi_y = ((1.0 - gamma) + dtn(t2, g)
                 + gamma * (1.0 + t1) * (1.0 + dtn(t1, g)))
        checks = {c.name: c for c in prop65_check(sol).checks}
        if gamma < 0:
            margin = checks["psi_y upper (gamma<=0)"].worst_margin
            expected = float(np.min(1.0 - 0.5 * gamma - psi_y))
        else:
            _, gx, gy = harmonic_fields(t1, g, (1.0,) + INTERIOR_LEVELS)
            grad_inf = float(np.min(gx ** 2 + (1.0 + gy) ** 2))
            bound = min(2.0 - gamma + 2.0 * eps1, gamma * grad_inf)
            margin = checks["psi_y lower (gamma>=0)"].worst_margin
            expected = float(np.min(psi_y - bound))
        assert margin == pytest.approx(expected, rel=1e-14, abs=1e-15)

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

    @pytest.mark.parametrize("wave, transforms", [
        # the state (1 rfft, 1 irfft) and its level fields (1 irfft); the
        # flow force (2 rfft, 1 fft, 5 irfft at gamma = 0, 7 else); the nodal
        # ripple and the conjugate primitive (1 rfft, 1 irfft each); zeta_x
        # (1 irfft), which gamma = 0 skips
        ("small_wave", {"rfft": 5, "irfft": 9, "fft": 1}),
        ("rotational_wave", {"rfft": 5, "irfft": 12, "fft": 1}),
    ], ids=["small_wave", "rotational_wave"])
    def test_shared_evaluations(self, wave, transforms, request, monkeypatch):
        # the checks share one SurfaceState and read its fields and spectra,
        # and each gives the value of its public function at the solution
        # or, for the field identities, of the formulas
        sol = request.getfixturevalue(wave)
        states = []
        init = SurfaceState.__init__

        def counting_init(self, *args):
            states.append(self)
            init(self, *args)

        monkeypatch.setattr(SurfaceState, "__init__", counting_init)
        calls = count_transforms(monkeypatch, ("rfft", "irfft", "fft"))
        rep = full_report(sol)
        assert len(states) == 1
        assert calls == transforms
        monkeypatch.undo()
        assert rep["lambda_min"] == lambda_min(sol.t1, sol.params, sol.grid)
        assert (rep["bernoulli_fields"], rep["kinematic"],
                rep["asymptotic_fields"]["deviation"]) == field_identities(sol)
        nodal = nodal_check(sol)
        assert rep["nodal"] == {"passed": nodal.passed, "x_tail": nodal.x_tail,
                                "violation_count": len(nodal.violations)}
        assert rep["stream_potential_bounds"] == [
            {"name": c.name, "status": c.status, "worst_margin": c.worst_margin}
            for c in prop65_check(sol).checks]
        flux = flux_identity_check(sol)
        assert (rep["flux_identity"]["lhs"], rep["flux_identity"]["rhs"],
                rep["flux_identity"]["advective"]) == (flux.lhs, flux.rhs, flux.advective)
        profile = physical_profile(sol)
        assert rep["profile"] == {"overhang": profile.overhang,
                                  "min_xi_prime": profile.min_xi_prime,
                                  "self_intersecting": profile.self_intersecting}


def bitwise_equal(a, b) -> bool:
    """a and b equal field by field, arrays byte for byte."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            bitwise_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(bitwise_equal, a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


@pytest.mark.parametrize("check", [
    flux_identity_check, nodal_check, physical_profile, prop65_check,
    gamma_field_arrays, flow_force_profile], ids=lambda f: f.__name__)
@pytest.mark.parametrize("wave", ["small_wave", "rotational_wave"])
def test_check_at_solution_and_at_its_state(check, wave, request, monkeypatch):
    # a check given the state reads it and builds none of its own
    sol = request.getfixturevalue(wave)
    state = SurfaceState(sol.t1, sol.params, sol.grid)
    init = SurfaceState.__init__
    built = []

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(SurfaceState, "__init__", counting_init)
    at_state = check(state)
    assert built == []
    assert bitwise_equal(check(sol), at_state)


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
        assert flow_force_profile(sol)[n // 2] == \
            pytest.approx(shat(d, sol.params), abs=1e-12)
