import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehdsolitary import conjugate_primitive, ddx, dtn, eval_interior, make_grid
from ehdsolitary.spectral import (
    INTERIOR_LEVELS,
    _cosh_ratio,
    _cosine_weights,
    _ddx_multiplier,
    _sinh_ratio,
    cosine_coefficients,
    dtn_multiplier,
    surface_fields,
    values_from_cosine,
)
from ehdsolitary import spectral

from helpers import (cosine_basis, count_transforms, eval_interior_dy, harmonic_fields,
                     random_even_trace)


def fd6_derivative(values, h):
    """6th-order centered finite differences on the periodic grid (oracle)."""
    out = np.zeros_like(values)
    for shift, w in ((1, 3 / 4), (-1, -3 / 4), (2, -3 / 20), (-2, 3 / 20),
                     (3, 1 / 60), (-3, -1 / 60)):
        out += w * np.roll(values, -shift)
    return out / h


class TestDdx:
    def test_pure_mode_exact(self):
        g = make_grid(7.0, 128)
        k = g.wavenumbers[1]
        assert np.max(np.abs(ddx(np.cos(k * g.x), g) + k * np.sin(k * g.x))) < 1e-12

    def test_constant_is_zero(self):
        g = make_grid(5.0, 64)
        assert np.max(np.abs(ddx(np.ones(64), g))) == 0.0

    def test_fd6_oracle_on_smooth_trace(self):
        # oracle: 6th-order centered differences on the same grid
        errs = []
        for n in (128, 256, 512):
            g = make_grid(20.0, n)
            t = 1.0 / np.cosh(g.x) ** 2
            errs.append(np.max(np.abs(fd6_derivative(t, g.spacing) - ddx(t, g))))
        # spectral is the more accurate side; the gap is the FD truncation
        # error and must drop by ~2^6 per halving of h
        assert errs[0] / errs[1] > 40
        assert errs[1] / errs[2] > 40
        assert errs[2] < 2e-6

    def test_length_mismatch(self):
        g = make_grid(5.0, 64)
        with pytest.raises(ValueError, match="length"):
            ddx(np.zeros(32), g)


class TestDtn:
    def test_constant_maps_to_itself(self):
        g = make_grid(5.0, 64)
        out = dtn(np.full(64, 1.0), g)
        assert np.max(np.abs(out - 1.0)) < 1e-14

    def test_cos_on_pi_grid(self):
        # scalar oracle: k coth k at k = 1
        g = make_grid(np.pi, 64)
        t = np.cos(g.x)
        expected = (1.0 / np.tanh(1.0)) * t
        assert np.max(np.abs(dtn(t, g) - expected)) < 1e-12
        assert 1.0 / np.tanh(1.0) == pytest.approx(1.3130, abs=5e-5)

    def test_multiplier_monotone_and_at_least_one(self):
        k = np.linspace(0.0, 80.0, 4001)
        m = dtn_multiplier(k)
        assert m[0] == 1.0
        assert np.all(np.diff(m) > 0)
        assert np.all(m >= 1.0)

    def test_multiplier_large_k_no_overflow(self):
        k = np.array([500.0, 5000.0, 5e4])
        m = dtn_multiplier(k)
        assert np.all(np.isfinite(m))
        assert np.allclose(m, k, rtol=1e-12)

    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_self_adjoint_positive(self, seed):
        g = make_grid(10.0, 64)
        rng = np.random.default_rng(seed)
        a = random_even_trace(g, rng)
        b = random_even_trace(g, rng)
        da, db = dtn(a, g), dtn(b, g)
        scale = max(np.abs(a @ db), np.abs(b @ da), 1.0)
        assert abs(a @ db - b @ da) / scale < 1e-12
        assert a @ da >= (a @ a) * 1.0 - 1e-10 * scale  # min multiplier G(0) = 1

    def test_fd_laplace_oracle_with_mesh_refinement(self):
        """Second-order finite-difference solve of the strip Dirichlet
        problem; the gap to the spectral map must shrink at the oracle's
        order, and the Richardson-extrapolated oracle must agree to 1e-6."""
        from scipy.sparse import lil_matrix
        from scipy.sparse.linalg import spsolve

        L = 10.0

        def fd_dtn(trace, nx, ny):
            hx, hy = 2 * L / nx, 1.0 / ny
            n_unknown = nx * (ny - 1)

            def idx(i, j):
                return (j - 1) * nx + i

            A = lil_matrix((n_unknown, n_unknown))
            rhs = np.zeros(n_unknown)
            for j in range(1, ny):
                for i in range(nx):
                    r = idx(i, j)
                    A[r, r] = -2.0 / hx ** 2 - 2.0 / hy ** 2
                    A[r, idx((i + 1) % nx, j)] += 1.0 / hx ** 2
                    A[r, idx((i - 1) % nx, j)] += 1.0 / hx ** 2
                    if j + 1 <= ny - 1:
                        A[r, idx(i, j + 1)] += 1.0 / hy ** 2
                    else:
                        rhs[r] -= trace[i] / hy ** 2
                    if j - 1 >= 1:
                        A[r, idx(i, j - 1)] += 1.0 / hy ** 2
                    # j - 1 == 0 is the zero bottom boundary
            u = spsolve(A.tocsr(), rhs).reshape(ny - 1, nx)
            # one-sided 2nd-order derivative at the top, consistent order
            return (3.0 * trace - 4.0 * u[-1] + u[-2]) / (2.0 * hy)

        rng = np.random.default_rng(7)
        meshes = ((64, 32), (128, 64), (256, 128))
        for trial in range(2):
            g_ref = make_grid(L, 256)
            t_ref = random_even_trace(g_ref, rng, n_modes=6, decay=0.4)
            ref = dtn(t_ref, g_ref)
            errs = []
            fd_vals = []
            for nx, ny in meshes:
                step = 256 // nx
                fd = fd_dtn(t_ref[::step], nx, ny)
                errs.append(np.max(np.abs(fd - ref[::step])))
                fd_vals.append(fd)
            # order-2 decrease between successive meshes (grids nest)
            assert errs[0] / errs[1] > 3.0
            assert errs[1] / errs[2] > 3.0
            # Richardson extrapolation of the two finest meshes kills the h^2
            # term; relative agreement with the spectral map below 1e-6 at
            # the coarse-mesh stations
            rich = (4.0 * fd_vals[2][::2] - fd_vals[1]) / 3.0
            rel = np.max(np.abs(rich - ref[::2])) / np.max(np.abs(ref))
            assert rel < 1e-6


class TestEvalInterior:
    def test_identity_at_top(self):
        g = make_grid(8.0, 64)
        rng = np.random.default_rng(3)
        t = random_even_trace(g, rng)
        assert np.max(np.abs(eval_interior(t, g, 1.0) - t)) < 1e-14 * np.max(np.abs(t))

    def test_zero_at_bottom(self):
        g = make_grid(8.0, 64)
        rng = np.random.default_rng(4)
        t = random_even_trace(g, rng)
        assert np.max(np.abs(eval_interior(t, g, 0.0))) < 1e-14

    def test_mode0_linear(self):
        g = make_grid(8.0, 64)
        out = eval_interior(np.full(64, 1.0), g, 0.5)
        assert np.max(np.abs(out - 0.5)) < 1e-14

    def test_out_of_range_rejected(self):
        g = make_grid(8.0, 64)
        with pytest.raises(ValueError, match="outside"):
            eval_interior(np.zeros(64), g, 1.5)
        with pytest.raises(ValueError, match="outside"):
            eval_interior_dy(np.zeros(64), g, -0.1)


class TestEvalInteriorDy:
    def test_top_equals_dtn(self):
        g = make_grid(8.0, 64)
        rng = np.random.default_rng(5)
        t = random_even_trace(g, rng)
        assert np.array_equal(eval_interior_dy(t, g, 1.0), dtn(t, g))

    def test_constant_trace(self):
        g = make_grid(8.0, 64)
        for y in (0.0, 0.3, 0.8):
            out = eval_interior_dy(np.full(64, 2.5), g, y)
            assert np.max(np.abs(out - 2.5)) < 1e-13

    @pytest.mark.parametrize("y", [0.25, 0.5, 0.75])
    def test_matches_centered_difference_in_y(self, y):
        g = make_grid(8.0, 64)
        rng = np.random.default_rng(6)
        t = random_even_trace(g, rng)
        errs = []
        for dy in (1e-3, 5e-4):
            approx = (eval_interior(t, g, y + dy) - eval_interior(t, g, y - dy)) / (2 * dy)
            errs.append(np.max(np.abs(approx - eval_interior_dy(t, g, y))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)  # O(dy^2)


class TestHarmonicFields:
    YS = (1.0, 0.75, 0.3, 0.0)

    def test_top_rows_are_the_surface_operators(self):
        g = make_grid(8.0, 64)
        t = random_even_trace(g, np.random.default_rng(7))
        w, w_x, w_y = harmonic_fields(t, g, self.YS)
        assert w.shape == w_x.shape == w_y.shape == (len(self.YS), 64)
        assert np.array_equal(w[0], t)
        assert np.array_equal(w_x[0], ddx(t, g))
        assert np.array_equal(w_y[0], dtn(t, g))

    def test_surface_fields_are_the_surface_operators(self, monkeypatch):
        g = make_grid(8.0, 64)
        rng = np.random.default_rng(10)
        calls = count_transforms(monkeypatch)
        for t in (random_even_trace(g, rng),
                  np.stack([random_even_trace(g, rng) for _ in range(3)])):
            rows = np.stack([t, 0.5 * t * t])
            calls.clear()
            c, (t_x, t_y, u_y) = surface_fields(rows, g)
            assert calls == {"rfft": 1, "irfft": 1}
            assert np.array_equal(c, np.fft.rfft(rows))
            assert np.array_equal(t_x, ddx(t, g))
            assert np.array_equal(t_y, dtn(t, g))
            assert np.array_equal(u_y, dtn(0.5 * t * t, g))

    def test_one_transform_each_way(self, monkeypatch):
        g = make_grid(8.0, 64)
        t = random_even_trace(g, np.random.default_rng(12))
        calls = count_transforms(monkeypatch)
        harmonic_fields(t, g, self.YS)
        assert calls == {"rfft": 1, "irfft": 1}

    def test_interior_rows_match_eval_interior(self):
        g = make_grid(8.0, 64)
        t = random_even_trace(g, np.random.default_rng(8))
        w, w_x, w_y = harmonic_fields(t, g, self.YS)
        for i, y in enumerate(self.YS):
            for got, ref in ((w[i], eval_interior(t, g, y)),
                             (w_x[i], eval_interior(ddx(t, g), g, y)),
                             (w_y[i], eval_interior_dy(t, g, y))):
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_batch_equals_per_trace_calls(self):
        g = make_grid(8.0, 64)
        rng = np.random.default_rng(9)
        ts = np.stack([random_even_trace(g, rng), random_even_trace(g, rng)])
        batch = harmonic_fields(ts, g, self.YS)
        for j in range(2):
            for got, ref in zip(batch, harmonic_fields(ts[j], g, self.YS)):
                assert np.array_equal(got[:, j], ref)

    def test_out_of_range_rejected(self):
        g = make_grid(8.0, 64)
        for y in (1.5, -0.1):
            with pytest.raises(ValueError, match="outside"):
                harmonic_fields(np.zeros(64), g, (0.5, y))


class TestGridSymbols:
    """Per-grid symbols cached on Grid: the fresh values, computed once,
    read-only."""

    @pytest.mark.parametrize("n", [16, 1024])
    def test_bit_equal_to_fresh_symbols(self, n):
        g = make_grid(7.5, n)
        assert np.array_equal(g.dtn_symbol, dtn_multiplier(g.wavenumbers))
        assert np.array_equal(g.ddx_symbol, _ddx_multiplier(g.wavenumbers))
        assert np.array_equal(g.cosine_weights, _cosine_weights(g))

    def test_same_object_on_repeat_access(self):
        g = make_grid(7.5, 64)
        for name in ("dtn_symbol", "ddx_symbol", "cosine_weights"):
            assert getattr(g, name) is getattr(g, name)

    def test_not_writeable(self):
        g = make_grid(7.5, 64)
        for name in ("dtn_symbol", "ddx_symbol", "cosine_weights"):
            arr = getattr(g, name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 2.0


class TestLevelSymbols:
    """The interior multipliers cached on Grid: only the interior heights,
    the fresh values, built once per grid, read-only."""

    def test_fixed_heights_only(self):
        g = make_grid(7.5, 64)
        assert INTERIOR_LEVELS == (0.25, 0.5, 0.75)
        sinh, cosh = g.level_symbols
        assert sinh.shape == cosh.shape == (len(INTERIOR_LEVELS), g.n_modes)
        # no row at the surface y = 1, where sinh(k y)/sinh k is 1
        assert not np.any(np.all(sinh == 1.0, axis=-1))

    @pytest.mark.parametrize("n", [16, 1024])
    def test_bit_equal_to_fresh_multipliers(self, n):
        g = make_grid(7.5, n)
        k = g.wavenumbers
        sinh, cosh = g.level_symbols
        for i, y in enumerate(INTERIOR_LEVELS):
            assert np.array_equal(sinh[i], _sinh_ratio(k, y))
            assert np.array_equal(cosh[i], _cosh_ratio(k, y))

    def test_built_once_per_grid(self, monkeypatch):
        built = []
        original = spectral._sinh_ratio

        def counting(k, y):
            built.append(y)
            return original(k, y)

        monkeypatch.setattr(spectral, "_sinh_ratio", counting)
        g = make_grid(7.5, 64)
        t = random_even_trace(g, np.random.default_rng(13))
        fields = [spectral._interior_fields(np.fft.rfft(t), g) for _ in range(3)]
        assert g.level_symbols is g.level_symbols
        assert built == list(INTERIOR_LEVELS)
        for rows in fields[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(rows, fields[0]))
        make_grid(7.5, 64).level_symbols
        assert built == 2 * list(INTERIOR_LEVELS)

    def test_read_only(self):
        g = make_grid(7.5, 64)
        with pytest.raises(TypeError):
            g.level_symbols[0] = g.level_symbols[1]
        for arr in g.level_symbols:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 2.0


class TestConjugatePrimitive:
    def test_mode_antiderivative(self):
        g = make_grid(6.0, 64)
        k = g.wavenumbers[2]
        out = conjugate_primitive(-k * np.sin(k * g.x), g)
        assert np.max(np.abs(out - np.cos(k * g.x))) < 1e-12

    def test_zero_trace(self):
        g = make_grid(6.0, 64)
        assert np.max(np.abs(conjugate_primitive(np.zeros(64), g))) == 0.0

    def test_ddx_round_trip(self):
        g = make_grid(12.0, 128)
        rng = np.random.default_rng(8)
        t = random_even_trace(g, rng)
        t = t - np.mean(t)
        # Nyquist and mean are annihilated by the primitive; compare on the rest
        recovered = ddx(conjugate_primitive(t, g), g)
        assert np.max(np.abs(recovered - t)) < 1e-12

    def test_even_input_gives_odd_output(self):
        g = make_grid(12.0, 128)
        rng = np.random.default_rng(9)
        t = random_even_trace(g, rng)
        t = t - np.mean(t)
        out = conjugate_primitive(t, g)
        n = g.n_points
        mirrored = out[(-np.arange(n)) % n]
        assert np.max(np.abs(out + mirrored)) < 1e-12
        assert abs(np.mean(out)) < 1e-14

    def test_mean_warning(self):
        g = make_grid(6.0, 64)
        with pytest.warns(RuntimeWarning, match="mean"):
            conjugate_primitive(np.full(64, 0.5), g)


class TestCosineBasisHelpers:
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_round_trip(self, seed):
        g = make_grid(9.0, 64)
        rng = np.random.default_rng(seed)
        t = random_even_trace(g, rng, n_modes=g.n_modes)
        a = cosine_coefficients(t, g)
        back = values_from_cosine(a, g)
        assert np.max(np.abs(back - t)) < 1e-12 * max(1.0, np.max(np.abs(t)))

    def test_basis_matrix_consistency(self):
        g = make_grid(9.0, 32)
        basis = cosine_basis(g)
        for n in range(g.n_modes):
            a = cosine_coefficients(basis[n], g)
            expected = np.zeros(g.n_modes)
            expected[n] = 1.0
            assert np.max(np.abs(a - expected)) < 1e-12


class TestRealTransformConvention:
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_mean_and_nyquist_coefficients_are_real(self, seed):
        # real-input transform convention: c_0 and c_{N/2} carry no phase
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(64)
        c = np.fft.rfft(t)
        assert c[0].imag == 0.0
        assert c[-1].imag == 0.0
