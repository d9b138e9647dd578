"""Shared value types: physical parameters, collocation grid, solutions, branch records.

All types are immutable value data after construction and safe to share
between threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np


class ValidationError(ValueError):
    """Raised when a constructor precondition fails; names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass(frozen=True)
class BaseParams:
    """Vorticity and permittivity pair, before a wave-speed parameter is chosen."""

    gamma: float
    eps1: float

    def __post_init__(self):
        if not np.isfinite(self.gamma):
            raise ValidationError("gamma", "must be finite")
        if not np.isfinite(self.eps1) or self.eps1 < 0:
            raise ValidationError("eps1", "relative permittivity must be >= 0")

    @property
    def alpha_cr(self) -> float:
        """Critical inverse square Froude number 1 - gamma + eps1."""
        return 1.0 - self.gamma + self.eps1

    def with_alpha(self, alpha: float) -> "Params":
        return make_params(self.gamma, self.eps1, alpha)


@dataclass(frozen=True)
class Params(BaseParams):
    """Dimensionless parameter set of one flow.

    gamma : constant vorticity
    eps1  : relative permittivity (>= 0)
    alpha : inverse square Froude number 1/F^2 (> 0)

    alpha_cr and froude are always recomputed from the stored fields, never
    stored independently, so they cannot drift out of sync.
    """

    alpha: float

    def __post_init__(self):
        super().__post_init__()
        if not np.isfinite(self.alpha) or self.alpha <= 0:
            raise ValidationError("alpha", "inverse square Froude number must be > 0")

    @property
    def froude(self) -> float:
        return 1.0 / np.sqrt(self.alpha)


def make_params(gamma: float, eps1: float, alpha: float) -> Params:
    """Validated Params constructor."""
    return Params(float(gamma), float(eps1), float(alpha))


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform periodic collocation of the strip's top boundary.

    The solitary-wave line is truncated to the periodic box [-L, L) with N
    points x_j = -L + 2 L j / N and wavenumbers k_n = pi n / L, n = 0..N/2.
    The per-mode symbols of the spectral operators are computed on first
    access, cached on the grid and read-only; a race on first access only
    computes the same array twice.
    """

    half_length: float
    n_points: int
    x: np.ndarray = field(repr=False, default=None)
    wavenumbers: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        L, n = self.half_length, self.n_points
        if not np.isfinite(L) or L <= 0:
            raise ValidationError("half_length", "must be > 0")
        if n % 2 != 0 or n < 16:
            raise ValidationError("n_points", "must be an even integer >= 16")
        x = -L + (2.0 * L / n) * np.arange(n)
        k = (np.pi / L) * np.arange(n // 2 + 1)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "wavenumbers", k)
        x.setflags(write=False)
        k.setflags(write=False)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.n_points

    @property
    def n_modes(self) -> int:
        """Number of retained cosine modes, N/2 + 1."""
        return self.n_points // 2 + 1

    # The symbols are defined in spectral, which imports this module.
    @cached_property
    def dtn_symbol(self) -> np.ndarray:
        """spectral.dtn_multiplier of the wavenumbers: k coth k, 1 at k = 0."""
        from .spectral import dtn_multiplier
        return _read_only(dtn_multiplier(self.wavenumbers))

    @cached_property
    def ddx_symbol(self) -> np.ndarray:
        """spectral._ddx_multiplier of the wavenumbers: i k, Nyquist zeroed."""
        from .spectral import _ddx_multiplier
        return _read_only(_ddx_multiplier(self.wavenumbers))

    @cached_property
    def cosine_weights(self) -> np.ndarray:
        """spectral._cosine_weights: rfft real parts to cosine coefficients."""
        from .spectral import _cosine_weights
        return _read_only(_cosine_weights(self))

    @cached_property
    def level_symbols(self):
        """The interior multipliers (sinh(k y)/sinh k, k cosh(k y)/sinh k),
        each a read-only (len(spectral.INTERIOR_LEVELS), N/2 + 1) array whose
        row i is at height INTERIOR_LEVELS[i]."""
        from .spectral import INTERIOR_LEVELS, _cosh_ratio, _sinh_ratio
        return tuple(_read_only(np.array([ratio(self.wavenumbers, y)
                                          for y in INTERIOR_LEVELS]))
                     for ratio in (_sinh_ratio, _cosh_ratio))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def make_grid(half_length: float, n_points: int) -> Grid:
    """Validated Grid constructor."""
    return Grid(float(half_length), int(n_points))


# --- surface traces -------------------------------------------------------
#
# A surface trace is a plain float array of N samples on Grid.x.  Evenness in
# x is the symmetry values[j] == values[(N - j) mod N].

def reflect(values: np.ndarray) -> np.ndarray:
    """Mirror a trace about x = 0 on the periodic grid."""
    n = values.shape[-1]
    idx = (-np.arange(n)) % n
    return values[..., idx]


def symmetry_error(values: np.ndarray) -> float:
    """Sup-norm distance to the mirrored trace, relative to max magnitude."""
    scale = max(float(np.max(np.abs(values))), 1.0)
    return float(np.max(np.abs(values - reflect(values)))) / scale


def amplitude_of(t1: np.ndarray, g: Grid) -> float:
    """Crest height, the trace value at x = 0."""
    return float(t1[g.n_points // 2])


def tail_of(t1: np.ndarray, g: Grid) -> float:
    """Max |t1| on the outer 10% of the box; decay surrogate for the
    solitary-wave far field."""
    outer = np.abs(g.x) >= 0.9 * g.half_length
    return float(np.max(np.abs(t1[outer])))


@dataclass(frozen=True, eq=False)
class WaveSolution:
    """Converged surface trace of the harmonic unknown plus scalar diagnostics.

    residual_norm is the sup-norm of the Bernoulli residual at construction,
    amplitude the crest height t1(0), tail the outer-10% maximum of |t1|.
    norm_history optionally carries the solver's residual-norm sequence; it is
    not part of the persisted value.
    """

    params: Params
    grid: Grid
    t1: np.ndarray
    residual_norm: float
    amplitude: float
    tail: float
    norm_history: Optional[list] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.t1.shape != (self.grid.n_points,):
            raise ValidationError("t1", "length does not match grid")
        self.t1.setflags(write=False)


@dataclass(frozen=True)
class BranchPoint:
    """One accepted continuation record with the limit monitors.

    monitor_m1 : inf over the surface of stag = 1 + eps1 - 2 alpha t1.  On
                 a solution stag = q^2 + eps1 |E|^2, q the fluid speed and
                 |E| = 1/|grad eta| the field strength at the surface, so
                 for eps1 > 0 it vanishes only with q -> 0 and
                 |grad eta| -> infinity together
    monitor_m2 : inf over the surface of |grad eta|
    monitor_m3 : sup over the surface of |grad eta|
    """

    s: float
    alpha: float
    amplitude: float
    monitor_m1: float
    monitor_m2: float
    monitor_m3: float
    froude: float
    lambda_min: float
    residual_norm: float

    def __post_init__(self):
        if not self.lambda_min > 0:
            raise ValidationError("lambda_min", "accepted points must have lambda > 0")
        if self.monitor_m2 > self.monitor_m3 + 1e-15:
            raise ValidationError("monitor_m2", "inf |grad eta| cannot exceed sup |grad eta|")
