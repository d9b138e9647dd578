import numpy as np

from ehdsolitary.reduced_ode import _rk4_step
from ehdsolitary.spectral import _apply_multiplier, _check_height, _check_trace, _cosh_ratio


def random_even_trace(g, rng, n_modes=12, scale=1.0, decay=0.5):
    """Smooth random even trace built from low cosine modes."""
    coeffs = scale * rng.standard_normal(n_modes) * decay ** np.arange(n_modes)
    t = np.zeros(g.n_points)
    for n, c in enumerate(coeffs):
        t += c * np.cos(g.wavenumbers[n] * g.x)
    return t


def eval_interior_dy(t, g, y):
    """y-derivative of the harmonic extension sampled at height y in [0, 1].

    Multiplier k cosh(k y)/sinh(k); mode 0 maps to the constant 1 times the
    trace mean.  At y = 1 this coincides with dtn exactly.
    """
    y = _check_height(y)
    return _apply_multiplier(_check_trace(t, g), _cosh_ratio(g.wavenumbers, y))


def homoclinic_slope(x, p):
    """Derivative of the closed-form orbit q0 sech^2(sqrt(3) x / 2)."""
    x = np.asarray(x, dtype=float)
    u = 0.5 * np.sqrt(3.0) * x
    val = -np.sqrt(3.0) * p.q0 * np.tanh(u) / np.cosh(u) ** 2
    return float(val) if val.ndim == 0 else val


def closed_orbit_return(q0, p, dt=1e-3, max_steps=200_000):
    """Distance to the launch point (q0, 0) at the first full revolution,
    or None if no return is detected within the budget.

    The crossing of P through zero is refined by bisection on the integrated
    flow, so the returned closure error reflects the integrator, not the
    sampling stride.
    """
    q, v = float(q0), 0.0
    crossings = 0
    for _ in range(max_steps):
        qn, vn = _rk4_step(q, v, dt, p)
        if abs(qn) > 10.0 * p.q0:
            return None
        if v != 0.0 and np.sign(vn) != np.sign(v) and vn != 0.0:
            # refine the crossing time by bisection on the sub-step
            lo, hi = 0.0, dt
            ql, vl = q, v
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                qm, vm = _rk4_step(q, v, mid, p)
                if np.sign(vm) == np.sign(vl) and vm != 0.0:
                    lo = mid
                    ql, vl = qm, vm
                else:
                    hi = mid
            crossings += 1
            if crossings == 2:
                return float(np.hypot(ql - q0, vl))
        q, v = qn, vn
    return None
