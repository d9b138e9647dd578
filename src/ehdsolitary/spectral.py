"""Fourier-multiplier operators for harmonic functions on the strip 0 < y < 1
with zero bottom data.

Every operator acts on the last axis, so a batch of traces can be processed
as an (m, N) array.  Hyperbolic multipliers are evaluated through expm1 in a
form that never overflows and stays accurate for all wavenumbers, so no
large-k branch is needed.
"""
from __future__ import annotations

import warnings

import numpy as np

from .model import Grid


def _check_trace(t: np.ndarray, g: Grid) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.shape[-1] != g.n_points:
        raise ValueError(
            f"trace length {t.shape[-1]} does not match grid n_points {g.n_points}"
        )
    return t


def _apply_multiplier(t: np.ndarray, mult: np.ndarray) -> np.ndarray:
    c = np.fft.rfft(t, axis=-1)
    return np.fft.irfft(c * mult, n=t.shape[-1], axis=-1)


def dtn_multiplier(k: np.ndarray) -> np.ndarray:
    """k coth k with the limit value 1 at k = 0."""
    k = np.asarray(k, dtype=float)
    out = np.ones_like(k)
    nz = k > 0
    em = np.expm1(-2.0 * k[nz])  # in (-1, 0)
    out[nz] = k[nz] * (2.0 + em) / (-em)
    return out


def _sinh_ratio(k: np.ndarray, y: float) -> np.ndarray:
    """sinh(k y) / sinh(k) with the limit value y at k = 0."""
    out = np.full_like(k, y)
    nz = k > 0
    kn = k[nz]
    out[nz] = np.exp(kn * (y - 1.0)) * np.expm1(-2.0 * kn * y) / np.expm1(-2.0 * kn)
    return out


def _cosh_ratio(k: np.ndarray, y: float) -> np.ndarray:
    """k cosh(k y) / sinh(k) with the limit value 1 at k = 0."""
    out = np.ones_like(k)
    nz = k > 0
    kn = k[nz]
    out[nz] = kn * np.exp(kn * (y - 1.0)) * (1.0 + np.exp(-2.0 * kn * y)) / (-np.expm1(-2.0 * kn))
    return out


def ddx(t: np.ndarray, g: Grid) -> np.ndarray:
    """Spectral tangential derivative along the surface.

    Exact for band-limited traces; the Nyquist mode's derivative is zeroed to
    avoid spurious odd components.
    """
    t = _check_trace(t, g)
    mult = 1j * g.wavenumbers.astype(complex)
    mult[-1] = 0.0
    return _apply_multiplier(t, mult)


def dtn(t: np.ndarray, g: Grid) -> np.ndarray:
    """Dirichlet-to-Neumann map of the strip: top-trace of the normal
    derivative of the harmonic extension with zero bottom data.

    Per-mode action c_n -> k_n coth(k_n) c_n, with the mode-0 multiplier
    exactly 1 (the linear extension u = y).
    """
    t = _check_trace(t, g)
    return _apply_multiplier(t, dtn_multiplier(g.wavenumbers))


def eval_interior(t: np.ndarray, g: Grid, y: float) -> np.ndarray:
    """Harmonic extension sampled at height y in [0, 1].

    Multiplier sinh(k y)/sinh(k); mode 0 scales linearly with y.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"height y={y} outside [0, 1]")
    t = _check_trace(t, g)
    return _apply_multiplier(t, _sinh_ratio(g.wavenumbers, float(y)))


def eval_interior_dy(t: np.ndarray, g: Grid, y: float) -> np.ndarray:
    """y-derivative of the harmonic extension sampled at height y in [0, 1].

    Multiplier k cosh(k y)/sinh(k); mode 0 maps to the constant 1 times the
    trace mean.  At y = 1 this coincides with dtn exactly.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"height y={y} outside [0, 1]")
    t = _check_trace(t, g)
    return _apply_multiplier(t, _cosh_ratio(g.wavenumbers, float(y)))


def conjugate_primitive(t: np.ndarray, g: Grid, mean_tol: float = 1e-3) -> np.ndarray:
    """Spectral antiderivative used to rebuild the horizontal surface
    coordinate from the vertical one (Cauchy-Riemann pairing).

    Per-mode action c_n -> c_n / (i k_n) for n >= 1; mode 0 is dropped, so
    the result has zero mean, and an even input yields an odd output.  A mean
    above mean_tol is a truncation symptom of the periodic box and is
    reported as a warning, not a failure.
    """
    t = _check_trace(t, g)
    c = np.fft.rfft(t, axis=-1).astype(complex)
    mean = np.max(np.abs(c[..., 0])) / g.n_points
    if mean > mean_tol:
        warnings.warn(
            f"conjugate_primitive: input mean {mean:.3e} exceeds {mean_tol:.1e}; "
            "the periodic box may be too narrow for the decaying profile",
            RuntimeWarning,
            stacklevel=2,
        )
    mult = np.zeros(g.n_modes, dtype=complex)
    mult[1:] = 1.0 / (1j * g.wavenumbers[1:])
    mult[-1] = 0.0  # Nyquist dropped, consistent with ddx
    return np.fft.irfft(c * mult, n=t.shape[-1], axis=-1)


# --- even (cosine) basis helpers -------------------------------------------
#
# An even trace t(x) = sum_n a_n cos(k_n x) is represented by its
# coefficient vector a of length N/2 + 1.  Used by the dense Newton path.

def _cosine_weights(g: Grid) -> np.ndarray:
    """Per-mode factor w_n (-1)^n mapping rfft real parts to cosine
    coefficients, with w = 1/N at n = 0 and the Nyquist mode, 2/N between;
    the (-1)^n moves the phase origin from x = -L to x = 0."""
    n = g.n_points
    w = np.full(g.n_modes, 2.0 / n)
    w[0] = 1.0 / n
    w[-1] = 1.0 / n
    signs = np.where(np.arange(g.n_modes) % 2 == 0, 1.0, -1.0)
    return w * signs


def cosine_coefficients(t: np.ndarray, g: Grid) -> np.ndarray:
    """Cosine coefficients a_n of (the even part of) a trace."""
    t = _check_trace(t, g)
    return np.fft.rfft(t, axis=-1).real * _cosine_weights(g)


def values_from_cosine(a: np.ndarray, g: Grid) -> np.ndarray:
    """Trace samples of sum_n a_n cos(k_n x) on the grid."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != g.n_modes:
        raise ValueError("coefficient length does not match grid")
    c = a / _cosine_weights(g)
    return np.fft.irfft(c.astype(complex), n=g.n_points, axis=-1)


def cosine_basis(g: Grid) -> np.ndarray:
    """Matrix B with row n the sampled basis trace cos(k_n x), shape (M, N)."""
    return np.cos(np.outer(g.wavenumbers, g.x))
