"""Error-controlled ODE integration with dense, uniform output.

A Dormand-Prince 5(4) embedded pair with PI step-size control drives both
linear systems: the 3-component qubit coherence vector and the
8-component qutrit coherence vector.  Two output modes are provided:

* :func:`integrate` - adaptive stepping, output grid filled by the
  standard 4th-order continuous extension of the pair; the step size is
  set by the tolerance alone, so one step covers many output times.  Each
  step that reaches the grid records its extension, and the records are
  evaluated on the grid in blocks of rows, not one step at a time;
* :func:`resample_uniform` - adaptive stepping clipped to land *exactly*
  on every output time (no interpolation), at one step per output time or
  more.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["IntegratorConfig", "Trajectory", "IntegrationError", "integrate", "resample_uniform"]

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4

# continuous-extension weights (4th-order dense output)
_D = np.array([
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0   # PI controller exponents for a 5th-order pair
_PI_BETA = 0.4 / 5.0
_FILL_BLOCK_ROWS = 1024   # dense-output rows evaluated at once; bounds the temporaries
_FILL_STEPS = 32          # continuous extensions held before they are evaluated


class IntegrationError(RuntimeError):
    """Raised on step underflow or a non-finite step; carries the last
    successfully reached time."""

    def __init__(self, message, last_time):
        super().__init__(f"{message} (last good time t={last_time:.6g})")
        self.last_time = last_time


@dataclass
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass
class Trajectory:
    """Uniform-grid solution with the statistics of the solve."""

    times: np.ndarray
    states: np.ndarray                  # (n, dim)
    max_error_estimate: float           # largest weighted local error accepted
    n_steps: int
    n_rejected: int


def _rms(x):
    # np.mean's Python wrapper would cost more than the reduction itself
    return math.sqrt(float(np.add.reduce(x * x)) / x.size)


def _error_norm(err, y_old, y_new, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return _rms(err / scale)


def _initial_step(rhs, t0, y0, f0, direction, span, cfg):
    # Hairer-style startup estimate; the trial Euler step stays in the span,
    # so the rhs is never evaluated past its end
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(rhs(t0 + h0 * direction, y1), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def _dense_coeffs(y_old, y_new, k, h):
    ydiff = y_new - y_old
    bspl = h * k[0] - ydiff
    r4 = ydiff - h * k[6] - bspl
    r5 = h * (_D @ k)
    return y_old, ydiff, bspl, r4, r5


def _dense_eval(coeffs, theta):
    r1, r2, r3, r4, r5 = coeffs
    return r1 + theta * (r2 + (1.0 - theta) * (r3 + theta * (r4 + (1.0 - theta) * r5)))


def _fill_dense(out, out_times, first, dense):
    """Evaluate recorded continuous extensions on the output rows they reach.

    `dense` lists (t, signed h, coefficients, end) per step; its steps cover
    rows first..end of the grid in order.  Each row takes its step's
    coefficients and theta = (t_out - t)/h, clipped to [0, 1], in blocks of
    _FILL_BLOCK_ROWS rows.
    """
    t_step, h_step, coeffs, ends = zip(*dense)
    t_step, h_step, ends = np.array(t_step), np.array(h_step), np.array(ends)
    coeffs = np.array(coeffs)              # (steps, 5, dim)
    for r0 in range(first, ends[-1], _FILL_BLOCK_ROWS):
        r1 = min(r0 + _FILL_BLOCK_ROWS, ends[-1])
        s = np.searchsorted(ends, np.arange(r0, r1), side="right")
        theta = (out_times[r0:r1] - t_step[s]) / h_step[s]
        out[r0:r1] = _dense_eval(coeffs[s].transpose(1, 0, 2), np.clip(theta, 0.0, 1.0)[:, None])


def _step(rhs, t, y, f0, h, direction):
    """One DOPRI5 step of signed size h*direction; returns y_new, err, k."""
    hs = h * direction
    k = np.empty((7,) + y.shape)
    k[0] = f0
    for i in range(1, 7):
        yi = y + hs * (_A[i] @ k[:i])
        k[i] = rhs(t + _C[i] * hs, yi)
    y_new = y + hs * (_B5 @ k)
    # FSAL: stage 7 was evaluated at (t+h, y_new) because _A[6] == _B5[:6]
    err = hs * (_E @ k)
    return y_new, err, k


def _run(rhs, y0, t_span, cfg, out_times, exact_landing):
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t0 == t1:
        raise ValueError("empty integration span")
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    slack = 1e-12 * span   # float slack of every time comparison

    y = np.array(y0, dtype=float)
    t = t0
    f0 = np.asarray(rhs(t0, y), dtype=float)

    out = np.empty((len(out_times), y.size))
    ahead = out_times * direction   # ascending whichever way the span runs
    next_out = 0
    if out_times[0] == t0:
        out[0] = y
        next_out = 1
    # dense output: (t, signed h, coefficients, end) of each step that
    # reaches an output time, evaluated on rows first_dense.. every
    # _FILL_STEPS such steps and once more after the loop
    first_dense = next_out
    dense = []

    h = min(_initial_step(rhs, t0, y, f0, direction, span, cfg), span)
    max_err = 0.0
    err_prev = 1.0
    n_steps = 0
    n_rejected = 0

    while (t1 - t) * direction > 0.0:
        if abs(t1 - t) <= slack:
            break  # span exhausted up to float slack
        if h <= abs(t) * 1e-14 + 1e-300:
            raise IntegrationError("step size underflow", t)
        h_try = min(h, abs(t1 - t))
        if exact_landing and next_out < len(out_times):
            gap = abs(out_times[next_out] - t)
            if gap > slack:
                h_try = min(h_try, gap)

        y_new, err, k = _step(rhs, t, y, f0, h_try, direction)
        errn = _error_norm(err, y, y_new, cfg)
        if not errn <= 1.0:  # also catches NaN, which compares False
            if not np.isfinite(errn):
                raise IntegrationError("non-finite error estimate", t)
            n_rejected += 1
            h = h_try * max(_MIN_FACTOR, _SAFETY * errn ** (-_PI_ALPHA))
            continue

        t_new = t + h_try * direction
        n_steps += 1
        max_err = max(max_err, errn)

        if exact_landing:
            while next_out < len(out_times) and abs(out_times[next_out] - t_new) <= slack:
                out[next_out] = y_new
                next_out += 1
        else:
            reach = t_new * direction + slack
            if next_out < len(out_times) and ahead[next_out] <= reach:
                end = int(np.searchsorted(ahead, reach, side="right"))
                hs = h_try * direction
                dense.append((t, hs, _dense_coeffs(y, y_new, k, hs), end))
                next_out = end
                if len(dense) == _FILL_STEPS:
                    _fill_dense(out, out_times, first_dense, dense)
                    first_dense, dense = next_out, []

        # PI step-size controller (memory only over accepted steps)
        errn = max(errn, 1e-10)
        factor = _SAFETY * errn ** (-_PI_ALPHA) * err_prev ** _PI_BETA
        h = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        err_prev = errn
        t, y, f0 = t_new, y_new, k[6]

    if dense:
        _fill_dense(out, out_times, first_dense, dense)
    out[next_out:] = y   # final point, guards float slack

    return out, max_err, n_steps, n_rejected


def integrate(rhs, y0, t_span, cfg=None, *, n_out):
    """Integrate y' = rhs(t, y) over t_span onto a uniform grid of n_out
    points.

    Adaptive DOPRI5(4) stepping; output values come from the pair's
    4th-order continuous extension.
    """
    cfg = cfg or IntegratorConfig()
    if n_out < 2:
        raise ValueError("need at least 2 output points")
    times = np.linspace(t_span[0], t_span[1], n_out)
    out, max_err, n_steps, n_rej = _run(rhs, y0, t_span, cfg, times, exact_landing=False)
    return Trajectory(times, out, max_err, n_steps, n_rej)


def resample_uniform(rhs, n, y0, t_span, cfg=None):
    """Integrate y' = rhs(t, y) onto a uniform grid of n points, never
    interpolating.

    Steps are clipped so the solver lands exactly on every grid time, so
    the samples, the last one included, carry no interpolation error.
    """
    cfg = cfg or IntegratorConfig()
    if n < 7:
        raise ValueError("uniform resampling needs at least 7 points")
    times = np.linspace(t_span[0], t_span[1], n)
    out, max_err, n_steps, n_rej = _run(rhs, y0, t_span, cfg, times, exact_landing=True)
    return Trajectory(times, out, max_err, n_steps, n_rej)
