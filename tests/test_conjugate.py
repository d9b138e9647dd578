from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ehdsolitary import (
    bore_verdict,
    conjugate,
    find_dcr,
    find_dstar,
    make_params,
    qhat,
    shat,
)

from helpers import (a5_cube_sample, qhat_prime, qhat_second, reference_dcr,
                     reference_dstar)

P_REF = dict(gamma=0.0, eps1=0.5, alpha=1.0)
EPS = np.finfo(float).eps


# gamma near 2 with eps1 = 0 makes A = (1 - gamma/2)^2 tiny and both depths
# small; gamma near 0 makes the quartic's and the cubic's leading
# coefficient gamma^2/4 vanish
EDGE_PARAMS = [(g, e, a)
               for g in (1.9, 1.999, 1.9999999, 1.99999999999, 2.0000001,
                         1e-12, -1e-12, 0.0)
               for e in (0.0, 1e-12)
               for a in (0.001, 0.7, 3.0)]


def backward_error(coeffs, d):
    """|P(d)| / sum_k |c_k d^k| for the polynomial with float coefficients
    coeffs (highest power first), evaluated exactly."""
    terms = [Fraction(c) * Fraction(d) ** k
             for k, c in enumerate(reversed(coeffs))]
    return float(abs(sum(terms)) / sum(abs(t) for t in terms))


def depth_polynomials(p):
    """The quartic of d_cr and the cubic of d_star, as find_dcr and
    find_dstar's docstrings state them."""
    A, b2 = conjugate._depth_coefficients(p)
    return [b2, p.alpha, 0.0, 0.0, -A], [b2, b2 + 2.0 * p.alpha, -A, -A]


def params_strategy():
    return st.builds(
        make_params,
        st.floats(-0.9, 0.9),
        st.floats(0.0, 2.0),
        st.floats(0.05, 3.0),
    )


class TestQhat:
    @given(p=params_strategy())
    def test_unit_depth_value(self, p):
        assert qhat(1.0, p) == pytest.approx(1.0 + p.eps1, abs=1e-14)

    def test_direct_substitution(self):
        p = make_params(**P_REF)
        assert qhat(2.0, p) == pytest.approx(2.375, abs=1e-15)

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            qhat(0.0, make_params(**P_REF))

    @given(p=params_strategy(), d=st.floats(0.2, 5.0))
    def test_second_difference_matches_closed_form(self, p, d):
        h = 1e-4
        fd = (qhat(d - h, p) - 2.0 * qhat(d, p) + qhat(d + h, p)) / h ** 2
        assert fd == pytest.approx(qhat_second(d, p), rel=1e-5, abs=1e-5)

    @given(p=params_strategy(), d=st.floats(0.2, 5.0))
    def test_convexity(self, p, d):
        assert qhat_second(d, p) > 0.0


class TestShat:
    def test_direct_substitution(self):
        p = make_params(**P_REF)
        assert shat(1.0, p) == pytest.approx(2.0, abs=1e-15)

    @given(p=params_strategy())
    def test_unit_depth_equals_trivial_flow_force(self, p):
        # closed-form flow force of the uniform stream
        expected = p.gamma ** 2 / 3.0 - p.gamma + 0.5 * p.alpha + 1.0 + p.eps1
        assert abs(shat(1.0, p) - expected) < 1e-12

    def test_derivative_identity_at_reference_point(self):
        # centered difference, step 1e-6, against (qhat(1) - qhat(d))/2
        p = make_params(**P_REF)
        d, h = 1.2, 1e-6
        fd = (shat(d + h, p) - shat(d - h, p)) / (2.0 * h)
        assert fd == pytest.approx(0.029166666, abs=1e-8)
        assert fd == pytest.approx(0.5 * (qhat(1.0, p) - qhat(d, p)), abs=1e-8)


class TestCriticalDepth:
    def test_analytic_oracle(self):
        # gamma=0, eps1=0.5, alpha=1: qhat' = -3/d^3 + 2 = 0 at (3/2)^(1/3)
        p = make_params(**P_REF)
        assert find_dcr(p) == pytest.approx((1.5) ** (1.0 / 3.0), abs=1e-12)

    def test_critical_speed_gives_unit_depth(self):
        p = make_params(0.2, 0.3, 1.1)  # alpha == alpha_cr
        assert find_dcr(p) == pytest.approx(1.0, abs=1e-12)

    def test_derivative_residual_small(self):
        p = make_params(0.2, 0.3, 1.0)
        assert abs(qhat_prime(find_dcr(p), p)) < 1e-12


class TestConjugateDepth:
    def test_reference_value(self):
        # oracle: positive root of 2d^3 - 3.5d^2 + 1.5 = 0 besides d = 1,
        # i.e. (1.5 + sqrt(14.25))/4
        p = make_params(**P_REF)
        exact = (1.5 + np.sqrt(14.25)) / 4.0
        d_star = find_dstar(p)
        assert d_star == pytest.approx(exact, abs=1e-10)
        assert abs(qhat(d_star, p) - qhat(1.0, p)) < 1e-12

    def test_degenerate_at_critical_speed(self):
        assert find_dstar(make_params(0.2, 0.3, 1.1)) is None

    @pytest.mark.parametrize("offset", [1e-5, -1e-5, 1e-6, -1e-6])
    def test_near_critical_speed_quadratic_oracle(self, offset):
        # gamma = 0, eps1 = 0.5: 2 alpha d^2 - 1.5 d - 1.5 = 0 next to the
        # double root d = 1 at alpha_cr = 1.5
        p = make_params(0.0, 0.5, 1.5 + offset)
        exact = (1.5 + np.sqrt(2.25 + 12.0 * p.alpha)) / (4.0 * p.alpha)
        assert abs(find_dstar(p) - exact) < 1e-10

    @given(p=params_strategy())
    def test_side_of_critical_depth(self, p):
        # away from the critical-speed tangency where d_star collapses to 1
        assume(abs(p.alpha - p.alpha_cr) > 0.01)
        d_star = find_dstar(p)
        d_cr = find_dcr(p)
        assert d_star is not None
        if p.alpha < p.alpha_cr:
            assert d_star > d_cr
        else:
            assert d_star < d_cr


class TestPolynomialRoots:
    """Both depths are polished polynomial roots: a relative backward error
    of a few rounding errors, at every scale of the depth."""

    @staticmethod
    def worst_backward_errors(params):
        worst_cr = worst_star = 0.0
        for p in params:
            quartic, cubic = depth_polynomials(p)
            worst_cr = max(worst_cr, backward_error(quartic, find_dcr(p)))
            worst_star = max(worst_star, backward_error(cubic, find_dstar(p)))
        return worst_cr / EPS, worst_star / EPS

    def test_backward_error_on_cube(self):
        worst = self.worst_backward_errors(a5_cube_sample(300, seed=11))
        assert max(worst) <= 16.0, worst

    @pytest.mark.parametrize("gamma, eps1, alpha", EDGE_PARAMS)
    def test_backward_error_at_edges(self, gamma, eps1, alpha):
        worst = self.worst_backward_errors([make_params(gamma, eps1, alpha)])
        assert max(worst) <= 16.0, worst

    def test_small_conjugate_depth_keeps_relative_accuracy(self):
        # an absolute root tolerance of 1e-14 leaves this depth of 5e-8
        # accurate to about 2e-9 only
        p = make_params(1.9999999, 0.0, 0.001)
        assert find_dstar(p) == pytest.approx(4.995007739939143e-08, rel=1e-14, abs=0.0)

    def test_agrees_with_bracketing_oracle(self, monkeypatch):
        # the same verdicts as from brentq on the closed-form brackets
        cube = a5_cube_sample(10_000, seed=12)
        ours = [bore_verdict(p) for p in cube]
        monkeypatch.setattr(conjugate, "find_dcr", reference_dcr)
        monkeypatch.setattr(conjugate, "find_dstar", reference_dstar)
        refs = [bore_verdict(p) for p in cube]
        worst_cr = max(abs(a.d_cr - b.d_cr) / b.d_cr for a, b in zip(ours, refs))
        worst_star = max(abs(a.d_star - b.d_star) / b.d_star for a, b in zip(ours, refs))
        assert worst_cr <= 1e-13 and worst_star <= 1e-13, (worst_cr, worst_star)
        assert [(r.bore_excluded, r.sign_consistent) for r in ours] == \
            [(r.bore_excluded, r.sign_consistent) for r in refs]

    def test_more_than_one_positive_root_rejected(self):
        # (d - 1)(d - 2)
        with pytest.raises(ValueError, match="one positive root"):
            conjugate._positive_root((1.0, -3.0, 2.0), 0.0, 3.0)

    def test_root_outside_bracket_rejected(self):
        with pytest.raises(ValueError, match="outside its bracket"):
            conjugate._positive_root((1.0, -3.0), 0.0, 1.0)


class TestNoPositiveDepth:
    # gamma = 2, eps1 = 0: qhat = d^2 + 2 alpha (d - 1) + 2 increases on d > 0
    P = make_params(2.0, 0.0, 1.0)

    def test_critical_depth_rejected(self):
        with pytest.raises(ValueError, match="no critical depth"):
            find_dcr(self.P)

    def test_verdict_rejected(self):
        with pytest.raises(ValueError, match="no critical depth"):
            bore_verdict(self.P)


class TestBoreVerdict:
    def test_subcritical_reference(self):
        rep = bore_verdict(make_params(**P_REF))
        assert rep.bore_excluded
        assert rep.qhat_at_1 == pytest.approx(1.5, abs=1e-15)
        assert rep.shat_at_1 == pytest.approx(2.0, abs=1e-14)
        assert rep.shat_at_star == pytest.approx(2.0070, abs=1e-4)
        assert rep.shat_at_star > rep.shat_at_1
        assert rep.sign_consistent

    def test_supercritical_sample(self):
        rep = bore_verdict(make_params(0.0, 0.0, 1.5))
        assert rep.bore_excluded
        assert rep.shat_at_star < rep.shat_at_1
        assert rep.sign_consistent

    def test_critical_speed_unique_depth(self):
        rep = bore_verdict(make_params(0.0, 0.5, 1.5))
        assert rep.d_star is None
        assert rep.bore_excluded
        assert "unique depth" in rep.reason

    @given(p=params_strategy())
    def test_excluded_across_parameters(self, p):
        assume(abs(p.alpha - p.alpha_cr) > 0.01)
        rep = bore_verdict(p)
        assert rep.bore_excluded
        assert rep.d_star is not None
        gap = rep.shat_at_star - rep.shat_at_1
        assert np.sign(gap) == np.sign(p.alpha_cr - p.alpha)
        assert rep.sign_consistent
