import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehdsolitary import (
    BranchPoint,
    ValidationError,
    WaveSolution,
    make_grid,
    make_params,
)
from ehdsolitary.model import amplitude_of, reflect, symmetry_error, tail_of
from helpers import symmetrize


class TestParams:
    def test_direct_substitution(self):
        p = make_params(0.0, 0.5, 1.0)
        assert p.alpha_cr == 1.5
        assert p.froude == 1.0

    def test_alpha_cr_arithmetic(self):
        assert make_params(0.2, 0.3, 1.0).alpha_cr == pytest.approx(1.1, abs=1e-15)

    def test_negative_eps1_rejected(self):
        with pytest.raises(ValidationError, match="eps1"):
            make_params(0.0, -0.1, 1.0)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            make_params(0.0, 0.5, 0.0)
        with pytest.raises(ValidationError, match="alpha"):
            make_params(0.0, 0.5, -2.0)

    @given(gamma=st.floats(-2, 2), eps1=st.floats(0, 3),
           alpha=st.floats(1e-3, 10))
    def test_derived_field_identities(self, gamma, eps1, alpha):
        p = make_params(gamma, eps1, alpha)
        assert p.alpha_cr == 1.0 - gamma + eps1
        assert abs(p.froude ** 2 * p.alpha - 1.0) < 1e-14


class TestGrid:
    def test_wavenumbers_pi_grid(self):
        g = make_grid(np.pi, 16)
        assert np.allclose(g.wavenumbers, np.arange(9), atol=1e-15)

    def test_spacing(self):
        g = make_grid(40.0, 512)
        assert g.spacing == pytest.approx(0.15625, abs=0)

    def test_odd_n_rejected(self):
        with pytest.raises(ValidationError, match="n_points"):
            make_grid(10.0, 15)

    def test_tiny_n_rejected(self):
        with pytest.raises(ValidationError, match="n_points"):
            make_grid(10.0, 8)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValidationError, match="half_length"):
            make_grid(0.0, 64)

    def test_abscissae(self):
        g = make_grid(5.0, 20)
        assert g.x[0] == -5.0
        assert np.all(np.diff(g.x) > 0)
        assert np.allclose(np.diff(g.x), g.spacing)
        assert g.x[g.n_points // 2] == 0.0
        assert g.wavenumbers[0] == 0.0


class TestTraceHelpers:
    def test_reflect_even_fixed_point(self):
        g = make_grid(3.0, 32)
        t = np.cos(g.wavenumbers[2] * g.x)
        assert np.allclose(reflect(t), t, atol=1e-15)

    def test_symmetrize_projects(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal(64)
        s = symmetrize(t)
        assert symmetry_error(s) < 1e-15
        # projection is idempotent
        assert np.array_equal(symmetrize(s), s)

    def test_amplitude_and_tail(self):
        g = make_grid(10.0, 64)
        t = 1.0 / np.cosh(g.x) ** 2
        assert amplitude_of(t, g) == 1.0
        # largest |t| among the outer-10% grid points (nearest to |x| = 9)
        x_edge = np.min(np.abs(g.x[np.abs(g.x) >= 9.0]))
        assert tail_of(t, g) == pytest.approx(1.0 / np.cosh(x_edge) ** 2, rel=1e-12)


class TestBranchPoint:
    def test_lambda_positive_required(self):
        with pytest.raises(ValidationError, match="lambda_min"):
            BranchPoint(s=0.0, alpha=1.0, amplitude=0.0, monitor_m1=1.0,
                        monitor_m2=1.0, monitor_m3=1.0, froude=1.0,
                        lambda_min=0.0, residual_norm=0.0)

    def test_gradient_bounds_ordered(self):
        with pytest.raises(ValidationError, match="monitor_m2"):
            BranchPoint(s=0.0, alpha=1.0, amplitude=0.0, monitor_m1=1.0,
                        monitor_m2=2.0, monitor_m3=1.0, froude=1.0,
                        lambda_min=1.0, residual_norm=0.0)

    def test_froude_alpha_consistency(self):
        pt = BranchPoint(s=0.0, alpha=1.44, amplitude=0.1, monitor_m1=1.0,
                         monitor_m2=1.0, monitor_m3=1.1, froude=1.0 / 1.2,
                         lambda_min=1.0, residual_norm=0.0)
        assert abs(pt.froude - 1.0 / np.sqrt(pt.alpha)) < 1e-14


def test_wave_solution_length_check():
    g = make_grid(10.0, 64)
    p = make_params(0.0, 0.5, 1.0)
    with pytest.raises(ValidationError, match="t1"):
        WaveSolution(params=p, grid=g, t1=np.zeros(32), residual_norm=0.0,
                     amplitude=0.0, tail=0.0)
