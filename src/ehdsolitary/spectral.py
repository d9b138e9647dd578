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

CONJUGATE_MEAN_TOL = 1e-3   # conjugate_primitive warns above this input mean
# Heights inside the strip where the pointwise checks sample, besides y = 1;
# their multipliers are cached on Grid (Grid.level_symbols).
INTERIOR_LEVELS = (0.25, 0.5, 0.75)


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


def _ddx_multiplier(k: np.ndarray) -> np.ndarray:
    """i k with the Nyquist mode zeroed."""
    mult = 1j * k.astype(complex)
    mult[-1] = 0.0
    return mult


def ddx(t: np.ndarray, g: Grid) -> np.ndarray:
    """Spectral tangential derivative along the surface.

    Exact for band-limited traces; the Nyquist mode's derivative is zeroed to
    avoid spurious odd components.
    """
    t = _check_trace(t, g)
    return _apply_multiplier(t, g.ddx_symbol)


def dtn(t: np.ndarray, g: Grid) -> np.ndarray:
    """Dirichlet-to-Neumann map of the strip: top-trace of the normal
    derivative of the harmonic extension with zero bottom data.

    Per-mode action c_n -> k_n coth(k_n) c_n, with the mode-0 multiplier
    exactly 1 (the linear extension u = y).
    """
    t = _check_trace(t, g)
    return _apply_multiplier(t, g.dtn_symbol)


def surface_fields(rows: np.ndarray, g: Grid):
    """The spectra of the traces stacked on the first axis of rows, from one
    forward transform, and, from one inverse transform, ddx of rows[0]
    followed by dtn of every row.

    A row may itself be a batch of traces.  Each output row equals the
    separate ddx or dtn call exactly.
    """
    rows = _check_trace(rows, g)
    c = np.fft.rfft(rows, axis=-1)
    spectra = np.concatenate([c[:1] * g.ddx_symbol, c * g.dtn_symbol])
    return c, np.fft.irfft(spectra, n=g.n_points, axis=-1)


def _check_height(y: float) -> float:
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"height y={y} outside [0, 1]")
    return float(y)


def eval_interior(t: np.ndarray, g: Grid, y: float) -> np.ndarray:
    """Harmonic extension sampled at height y in [0, 1].

    Multiplier sinh(k y)/sinh(k); mode 0 scales linearly with y.
    """
    y = _check_height(y)
    return _apply_multiplier(_check_trace(t, g), _sinh_ratio(g.wavenumbers, y))


def _interior_fields(c: np.ndarray, g: Grid):
    """The harmonic extension w and its derivatives w_x, w_y at the
    INTERIOR_LEVELS heights of the trace whose spectrum is c, each of shape
    (len(INTERIOR_LEVELS), N), from one stacked inverse transform."""
    sinh, cosh = g.level_symbols
    rows = np.fft.irfft(np.concatenate([c * sinh, c * g.ddx_symbol * sinh, c * cosh]),
                        n=g.n_points, axis=-1)
    return np.split(rows, 3)


def conjugate_primitive(t: np.ndarray, g: Grid) -> np.ndarray:
    """Spectral antiderivative used to rebuild the horizontal surface
    coordinate from the vertical one (Cauchy-Riemann pairing).

    Per-mode action c_n -> c_n / (i k_n) for n >= 1; mode 0 is dropped, so
    the result has zero mean, and an even input yields an odd output.  A mean
    above CONJUGATE_MEAN_TOL is a truncation symptom of the periodic box and
    is reported as a warning, not a failure.
    """
    t = _check_trace(t, g)
    c = np.fft.rfft(t, axis=-1).astype(complex)
    mean = np.max(np.abs(c[..., 0])) / g.n_points
    if mean > CONJUGATE_MEAN_TOL:
        warnings.warn(
            f"conjugate_primitive: input mean {mean:.3e} exceeds "
            f"{CONJUGATE_MEAN_TOL:.1e}; "
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
# coefficient vector a of length N/2 + 1, the unknown of the Newton
# linear step.

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
    return np.fft.rfft(t, axis=-1).real * g.cosine_weights


def values_from_cosine(a: np.ndarray, g: Grid) -> np.ndarray:
    """Trace samples of sum_n a_n cos(k_n x) on the grid."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != g.n_modes:
        raise ValueError("coefficient length does not match grid")
    c = a / g.cosine_weights
    return np.fft.irfft(c.astype(complex), n=g.n_points, axis=-1)
