import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehdsolitary import (
    BaseParams,
    OdeParams,
    ValidationError,
    f_reduced,
    integrate_orbit,
    phase_portrait,
)
from ehdsolitary.continuation import small_amplitude_coefficients
from ehdsolitary.reduced_ode import energy

from helpers import closed_orbit_return, homoclinic_exact, homoclinic_slope


class TestOdeParams:
    def test_canonical_portrait_parameters(self):
        p = OdeParams(0.0, 0.0)
        assert p.c2 == 4.5
        assert p.q0 == 1.0

    def test_crest_substitution(self):
        p = OdeParams(0.5, 0.5)
        assert p.q0 == pytest.approx(12.0 / 13.0, abs=1e-15)

    @pytest.mark.parametrize("gamma,eps1", [(0.0, 0.5), (0.4, 0.5), (-0.3, 1.0)])
    def test_crest_is_small_amplitude_prefactor(self, gamma, eps1):
        # the reduced orbit's crest and init_small's sech^2 prefactor share
        # the permittivity-corrected denominator 3 - 3 gamma + gamma^2 + 3 eps1
        p = OdeParams(gamma, eps1)
        prefactor, _ = small_amplitude_coefficients(BaseParams(gamma, eps1))
        assert p.q0 == prefactor
        assert p.c2 == pytest.approx(
            1.5 * (3.0 - 3.0 * gamma + gamma ** 2 + 3.0 * eps1), rel=1e-15)

    @given(gamma=st.floats(-3, 3), eps1=st.floats(0, 5))
    def test_denominator_positive(self, gamma, eps1):
        p = OdeParams(gamma, eps1)
        assert p.c2 > 0
        assert p.q0 > 0

    @pytest.mark.parametrize("gamma,eps1,field", [
        (np.nan, 0.0, "gamma"), (np.inf, 0.0, "gamma"), (-np.inf, 0.5, "gamma"),
        (0.0, -0.1, "eps1"), (0.0, np.nan, "eps1")])
    def test_invalid_params_refused_at_construction(self, gamma, eps1, field):
        # the BaseParams checks, before any coefficient is derived
        with pytest.raises(ValidationError) as exc:
            OdeParams(gamma, eps1)
        assert exc.value.field_name == field


class TestReducedRhs:
    def test_origin_is_equilibrium(self):
        p = OdeParams(0.3, 0.2)
        for b in (-1.0, 0.0, 2.0):
            assert f_reduced(0.0, b, 0.05, p) == 0.0

    def test_direct_substitution(self):
        p = OdeParams(0.0, 0.0)
        assert f_reduced(1.0, 0.0, 0.0, p) == -4.5

    def test_nontrivial_zero_by_bisection(self):
        # oracle: bisection on f(., 0, eps)
        p = OdeParams(0.2, 0.4)
        eps = 0.03
        lo, hi = 1e-12, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f_reduced(mid, 0.0, eps, p) > 0:
                lo = mid
            else:
                hi = mid
        a_star = 0.5 * (lo + hi)
        assert a_star == pytest.approx(3.0 * eps / p.c2, rel=1e-10)

    @given(a=st.floats(-5, 5), b1=st.floats(-5, 5), b2=st.floats(-5, 5),
           eps=st.floats(0, 0.1))
    def test_independent_of_slope_argument(self, a, b1, b2, eps):
        p = OdeParams(0.1, 0.3)
        assert f_reduced(a, b1, eps, p) == f_reduced(a, b2, eps, p)


class TestHomoclinic:
    def test_crest_values(self):
        assert homoclinic_exact(0.0, OdeParams(0.0, 0.0)) == 1.0
        assert homoclinic_exact(0.0, OdeParams(0.5, 0.5)) == pytest.approx(12 / 13, abs=1e-15)

    def test_symmetric_decay(self):
        p = OdeParams(0.0, 0.0)
        xs = np.linspace(0.1, 40.0, 50)
        assert np.allclose(homoclinic_exact(xs, p), homoclinic_exact(-xs, p))
        assert abs(homoclinic_exact(30.0 / np.sqrt(3.0) + 1.0, p)) < 1e-10

    def test_satisfies_ode_residual(self):
        # A9-grade check with closed-form derivatives at 200 points
        p = OdeParams(0.3, 0.7)
        xs = np.linspace(-8.0, 8.0, 200)
        u = 0.5 * np.sqrt(3.0) * xs
        q = homoclinic_exact(xs, p)
        # Q'' from differentiating the closed form twice
        qxx = 3.0 * p.q0 * (np.cosh(u) ** 2 - 1.5) / np.cosh(u) ** 4
        res = qxx - 3.0 * q + p.c2 * q * q
        assert np.max(np.abs(res)) < 1e-10

    def test_slope_matches_finite_difference(self):
        p = OdeParams(0.1, 0.2)
        h = 1e-6
        for x in (-2.0, 0.0, 0.7):
            fd = (homoclinic_exact(x + h, p) - homoclinic_exact(x - h, p)) / (2 * h)
            assert homoclinic_slope(x, p) == pytest.approx(fd, abs=1e-8)


class TestIntegrateOrbit:
    def test_origin_fixed_point(self):
        orb = integrate_orbit(0.0, 0.0, OdeParams(0.0, 0.0), 1e-3, 1000)
        assert np.max(np.abs(orb.q)) == 0.0
        assert np.max(np.abs(orb.p)) == 0.0

    def test_homoclinic_shadowing(self):
        # start on the separatrix at X = -10 and integrate to +10; compare
        # against the closed form (the mirror point by symmetry)
        p = OdeParams(0.0, 0.0)
        x0 = -10.0
        orb = integrate_orbit(homoclinic_exact(x0, p), homoclinic_slope(x0, p),
                              p, 1e-3, 20_000)
        assert not orb.escaped
        err = np.hypot(orb.q[-1] - homoclinic_exact(10.0, p),
                       orb.p[-1] - homoclinic_slope(10.0, p))
        assert err < 1e-6

    def test_energy_drift_rk4(self):
        p = OdeParams(0.0, 0.0)
        orb = integrate_orbit(0.5, 0.0, p, 1e-3, 10_000)
        assert orb.energy_drift <= 1e-10
        assert not orb.step_warning

    def test_energy_drift_order_four(self):
        p = OdeParams(0.0, 0.0)
        drifts = []
        for dt in (4e-3, 2e-3, 1e-3):
            n = int(round(8.0 / dt))
            drifts.append(integrate_orbit(0.5, 0.0, p, dt, n).energy_drift)
        slopes = np.log2(np.array(drifts[:-1]) / np.array(drifts[1:]))
        assert np.all(slopes > 3.3)   # empirical RK4 order ~ 4

    def test_large_step_flagged(self):
        orb = integrate_orbit(0.9, 0.0, OdeParams(0.0, 0.0), 0.5, 400)
        assert orb.step_warning or orb.escaped

    def test_invalid_dt(self):
        for dt in (0.0, -1e-3, np.nan, np.inf):
            with pytest.raises(ValidationError) as exc:
                integrate_orbit(0.5, 0.0, OdeParams(0.0, 0.0), dt, 10)
            assert exc.value.field_name == "dt"


class TestPhasePortrait:
    @pytest.mark.parametrize("field,value", [
        ("dt", 0.0), ("dt", -1e-3), ("dt", np.nan), ("dt", np.inf),
        ("x_max", 0.0), ("x_max", -1.0), ("x_max", np.nan), ("x_max", np.inf)])
    def test_invalid_step_or_span(self, field, value):
        # checked before the step count x_max / dt is formed
        with pytest.raises(ValidationError) as exc:
            phase_portrait(OdeParams(0.0, 0.0), (0.5,), **{field: value})
        assert exc.value.field_name == field

    def test_homoclinic_launch_closure(self):
        # the separatrix through (q0, 0): integrating forward must close onto
        # the saddle along the closed-form loop; by X = 12 the reference has
        # decayed to ~4e-9, so the measured distance is the closure error
        p = OdeParams(0.0, 0.0)
        orb = integrate_orbit(p.q0, 0.0, p, 1e-3, 12_000)
        ref_q = homoclinic_exact(orb.x, p)
        ref_p = homoclinic_slope(orb.x, p)
        assert np.max(np.hypot(orb.q - ref_q, orb.p - ref_p)) < 1e-5

    def test_inner_launch_closes(self):
        p = OdeParams(0.0, 0.0)
        err = closed_orbit_return(0.5, p, dt=1e-3)
        assert err is not None
        assert err < 1e-5

    def test_outer_launch_escapes(self):
        p = OdeParams(0.0, 0.0)
        orb = integrate_orbit(4.0, 0.0, p, 1e-3, 50_000)
        assert orb.escaped

    def test_fig4_topology(self):
        # launches below the separatrix crest are trapped, above escape
        p = OdeParams(0.0, 0.0)
        orbits = phase_portrait(p, (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
                                dt=1e-3, x_max=25.0)
        assert len(orbits) == 8
        assert not orbits[0].escaped              # inside: periodic
        for orb in orbits[2:]:                     # outside: unbounded
            assert orb.escaped
        assert all(o.truncation_order == 2 for o in orbits)
