"""ODE solutions on a uniform output grid: exact for a constant linear
system, error-controlled for any other.

:func:`propagate` solves y' = A y + b with A and b constant, with no steps:
one matrix exponential of the augmented generator over the grid spacing,
and the grid by state doubling.  The cli sends it every drive that is
constant in the frame of its solve; its accuracy is that of rounding, and
no tolerance enters it.

Hairer's DOP853, an 8th-order Runge-Kutta method with a combined 5th/3rd-
order error estimate, steps the drives that are not, under PI step-size
control: the 3-component qubit coherence vector and the 8-component qutrit
coherence vector.  Two output modes are provided:

* :func:`integrate` - adaptive stepping, output grid filled by the
  method's 7th-order continuous extension; the step size is set by the
  tolerance alone, so one step covers many output times.  Each step that
  reaches the grid evaluates the extension's three extra stages and
  records its coefficients, and the records are evaluated on the grid in
  blocks of rows, not one step at a time;
* :func:`resample_uniform` - adaptive stepping clipped to land *exactly*
  on every output time (no interpolation), at one step per output time or
  more.  No caller in the package; it is the exact-landing reference that
  the tests compare against.

A step holds y, its stages and y_new in one stack and scales one constant
table [1 | A] by h, so each stage argument y + h (A[i, :i] @ k[:i]) is a
single product of a row with the stack, and so are y_new, the error
estimates and the extension's coefficients; numpy's overhead per call, not
the arithmetic, sets the cost of a step on these small systems.  Each
:class:`Trajectory` counts the right-hand-side evaluations of its solve.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["IntegratorConfig", "Trajectory", "IntegrationError", "integrate", "resample_uniform",
           "propagate"]

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10): 12 stages,
# the FSAL stage 12 at (t+h, y_new), and stages 13-15 of the 7th-order
# continuous extension, which only steps that reach an output time evaluate
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
               0.7777777777777778])
_A = np.zeros((16, 16))
for _i, _row in enumerate([
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726, 5: 27.59209969944671,
     6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843, 5: 21.230051448181193,
     6: 15.279233632882423, 7: -33.28821096898486, 8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295, 5: -8.149787010746927,
     6: -18.52006565999696, 7: 22.739487099350505, 8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625, 5: -17.9589318631188,
     6: 27.94888452941996, 7: -2.8589982771350235, 8: -8.87285693353063, 9: 12.360567175794303,
     10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003, 7: -5.801203960010585,
     8: 0.3111643669578199, 9: -0.1521609496625161, 10: 0.20136540080403034,
     11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
     12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599, 7: 4.06898981839711,
     8: 0.3567271874552811, 12: -0.0013990241651590145, 13: 2.9475147891527724,
     14: -9.15095847217987},
], start=1):
    _A[_i, list(_row)] = list(_row.values())
_D = np.zeros((4, 16))
_D[:, [0, *range(5, 16)]] = [
    [-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
]
_B = _A[12, :12]
# error estimates of the 5th- and the 3rd-order embedded solutions; neither
# weighs the FSAL stage
_E5 = np.zeros(12)
_E5[[0, *range(5, 12)]] = [0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
                           1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                           0.08192320648511571, -0.022355307863886294]
_E3 = _B.copy()
_E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
_NODES = _C.tolist()
# A step keeps its stages in one stack s = (y, k_0, ..., k_15, y_new), shape
# (18, dim).  Row i of h * _TABLE with column 0 set to 1 makes the argument of
# stage i, y + h (A[i, :i] @ k[:i]), one product with s[:i + 1]; rows 16-17,
# whose column 0 stays 0, give the two error estimates.  Stage 12's argument
# is y_new, since row 12 of A holds the weights _B.
_TABLE = np.zeros((18, 17))
_TABLE[:16, 1:] = _A
_TABLE[16:, 1:13] = [_E5, _E3]
# the 8 coefficients of the continuous extension are (_CY + h _CK) @ s:
# y, y_new - y, h k_0 - (y_new - y), 2 (y_new - y) - h (k_0 + k_12), h (_D @ k)
_CY = np.zeros((8, 18))
_CY[:4, [0, 17]] = [[1.0, 0.0], [-1.0, 1.0], [1.0, -1.0], [-2.0, 2.0]]
_CK = np.zeros((8, 18))
_CK[2, 1] = 1.0
_CK[3, [1, 13]] = -1.0
_CK[4:, 1:17] = _D

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 8.0   # PI controller exponents for an 8th-order pair
_PI_BETA = 0.4 / 8.0
_FILL_BLOCK_ROWS = 1024   # dense-output rows evaluated at once; bounds the temporaries
_FILL_STEPS = 32          # continuous extensions held before they are evaluated
# propagate: the terms the Taylor polynomial of degree 18 omits sum to
# 4.5e-17, below 2^-53, at a norm of 1.09 (1.09^19/19! = 4.2e-17)
_TAYLOR_DEGREE = 18
_TAYLOR_THETA = 1.09
_MAX_PHASE = 1e14         # largest ||A||_1 |t1 - t0| that propagate resolves


class IntegrationError(RuntimeError):
    """Raised on step underflow, a non-finite step or a span the propagator
    cannot resolve; carries the last successfully reached time."""

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
    """Uniform-grid solution with the statistics of the solve; a solve that
    takes no steps (:func:`propagate`) has no statistics, and they are None."""

    times: np.ndarray
    states: np.ndarray                  # (n, dim)
    max_error_estimate: float = None    # largest weighted local error accepted
    n_steps: int = None
    n_rejected: int = None
    rhs_evals: int = None               # right-hand-side evaluations of the solve


def _rms(x):
    # np.mean's Python wrapper would cost more than the reduction itself
    return math.sqrt(float(np.add.reduce(x * x)) / x.size)


def _error_norm(err, y_old, y_new, cfg):
    """Hairer's DOP853 error norm of the stacked 5th- and 3rd-order estimates:
    the weighted RMS of the 5th-order one times sqrt(n5 / (n5 + 0.01 n3)),
    with n5 and n3 the sums of squares of the weighted estimates."""
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    e = err / scale
    n5, n3 = np.add.reduce(e * e, axis=1).tolist()
    denom = n5 + 0.01 * n3
    if denom == 0.0:
        # tiny estimates underflow in the squares: the sum is 0 only where n5
        # is, and so is the norm
        return 0.0
    return n5 / math.sqrt(denom * e.shape[1])


def _initial_step(rhs, t0, y0, f0, direction, span, cfg):
    # Hairer-style startup estimate; the trial Euler step stays in the span,
    # so the rhs is never evaluated past its end
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    # an overflowing norm is inf and is reported, so numpy need not warn
    with np.errstate(over="ignore"):
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
    if math.isinf(d1):
        # the squares overflow: h0 would be 0 and the trial step divides by it
        raise IntegrationError("the weighted norm of the initial derivative overflows; "
                               "the rates are too large for the tolerances", t0)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(rhs(t0 + h0 * direction, y1), dtype=float)
    with np.errstate(over="ignore"):
        d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125   # 1/8: the error norm is of order h^8
    return min(100 * h0, h1)


def _dense_coeffs(rhs, t, s, rows, h):
    """Coefficients (8, dim) of the 7th-order continuous extension of the
    step of signed size h from t, given its stack s and rows from
    :func:`_step`; evaluates the extra stages 13-15 into s."""
    for i in (13, 14, 15):
        s[i + 1] = rhs(t + _NODES[i] * h, rows[i, :i + 1].dot(s[:i + 1]))
    return (_CY + h * _CK).dot(s)


def _dense_eval(coeffs, theta):
    c0, c1, c2, c3, c4, c5, c6, c7 = coeffs
    s = 1.0 - theta
    return c0 + theta * (c1 + s * (c2 + theta * (c3 + s * (c4 + theta * (c5 + s * (
        c6 + theta * c7))))))


def _fill_dense(out, out_times, first, dense):
    """Evaluate recorded continuous extensions on the output rows they reach.

    `dense` lists (t, signed h, coefficients, end) per step; its steps cover
    rows first..end of the grid in order.  Each row takes its step's
    coefficients and theta = (t_out - t)/h, clipped to [0, 1], in blocks of
    _FILL_BLOCK_ROWS rows.
    """
    t_step, h_step, coeffs, ends = zip(*dense)
    t_step, h_step, ends = np.array(t_step), np.array(h_step), np.array(ends)
    coeffs = np.array(coeffs)              # (steps, 8, dim)
    for r0 in range(first, ends[-1], _FILL_BLOCK_ROWS):
        r1 = min(r0 + _FILL_BLOCK_ROWS, ends[-1])
        s = np.searchsorted(ends, np.arange(r0, r1), side="right")
        theta = (out_times[r0:r1] - t_step[s]) / h_step[s]
        out[r0:r1] = _dense_eval(coeffs[s].transpose(1, 0, 2), np.clip(theta, 0.0, 1.0)[:, None])


def _step(rhs, t, y, f0, h):
    """One DOP853 step of signed size h from (t, y), with f0 = rhs(t, y).

    Returns the stack s (18, dim): y, the stages k_0-k_11, the FSAL stage
    k_12 = rhs(t + h, y_new), three rows left for the continuous extension
    and y_new; the rows h * _TABLE it was built with; and the 5th- and
    3rd-order error estimates stacked (2, dim).
    """
    rows = h * _TABLE
    rows[:16, 0] = 1.0
    s = np.empty((18,) + y.shape)
    s[0] = y
    s[1] = f0
    for i in range(1, 12):
        s[i + 1] = rhs(t + _NODES[i] * h, rows[i, :i + 1].dot(s[:i + 1]))
    s[17] = rows[12, :13].dot(s[:13])
    s[13] = rhs(t + h, s[17])
    return s, rows, rows[16:, :13].dot(s[:13])


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
    rhs_evals = 2   # f0, and the trial stage of _initial_step
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

        hs = h_try * direction
        s, rows, err = _step(rhs, t, y, f0, hs)
        rhs_evals += 12
        y_new = s[17]
        errn = _error_norm(err, y, y_new, cfg)
        if not errn <= 1.0:  # also catches NaN, which compares False
            if not np.isfinite(errn):
                raise IntegrationError("non-finite error estimate", t)
            n_rejected += 1
            h = h_try * max(_MIN_FACTOR, _SAFETY * errn ** (-_PI_ALPHA))
            continue
        # the error estimates give the FSAL stage no weight, yet it starts the
        # next step and enters the continuous extension
        if not np.isfinite(s[13]).all():
            raise IntegrationError("non-finite derivative at the end of a step", t)

        t_new = t + hs
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
                dense.append((t, hs, _dense_coeffs(rhs, t, s, rows, hs), end))
                rhs_evals += 3
                next_out = end
                if len(dense) == _FILL_STEPS:
                    _fill_dense(out, out_times, first_dense, dense)
                    first_dense, dense = next_out, []

        # PI step-size controller (memory only over accepted steps)
        errn = max(errn, 1e-10)
        factor = _SAFETY * errn ** (-_PI_ALPHA) * err_prev ** _PI_BETA
        h = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        err_prev = errn
        t, y, f0 = t_new, y_new, s[13]

    if dense:
        _fill_dense(out, out_times, first_dense, dense)
    out[next_out:] = y   # final point, guards float slack

    return Trajectory(out_times, out, max_err, n_steps, n_rejected, rhs_evals)


def integrate(rhs, y0, t_span, cfg=None, *, n_out):
    """Integrate y' = rhs(t, y) over t_span onto a uniform grid of n_out
    points.

    Adaptive DOP853 stepping; output values come from the method's
    7th-order continuous extension.
    """
    cfg = cfg or IntegratorConfig()
    if n_out < 2:
        raise ValueError("need at least 2 output points")
    times = np.linspace(t_span[0], t_span[1], n_out)
    return _run(rhs, y0, t_span, cfg, times, exact_landing=False)


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
    return _run(rhs, y0, t_span, cfg, times, exact_landing=True)


def _expm(Z, norm):
    """exp(Z) of a small matrix with 1-norm `norm`, by scaling and squaring
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005; Moler & Van Loan,
    SIAM Rev. 45, 3, 2003): the Taylor polynomial of degree 18 in Horner
    form at Z / 2^s, with s the fewest halvings that bring the norm to
    _TAYLOR_THETA, then s squarings.  No eigenvectors, so a defective Z
    (a damped generator whose eigenvalues coalesce) is no special case."""
    s = max(0, math.ceil(math.log2(norm / _TAYLOR_THETA))) if norm > 0.0 else 0
    Z = np.ldexp(Z, -s)
    eye = np.eye(len(Z))
    P = eye
    for j in range(_TAYLOR_DEGREE, 0, -1):
        P = eye + Z.dot(P) / j
    for _ in range(s):
        P = P.dot(P)
    return P


def propagate(A, b, y0, t_span, *, n_out):
    """Solve y' = A y + b, with A and b constant, onto a uniform grid of
    n_out points over t_span, with no steps.

    One matrix exponential gives the grid step: with Y = (y, 1),
    Y(t + dt) = P Y(t) for P = exp([[A, b], [0, 0]] dt).  The grid comes from
    state doubling: rows m..2m-1 are rows 0..m-1 times P^m, and P^(2m) is
    P^m squared, so n_out samples take about 2 log2(n_out) products and no
    loop over samples.  The rounding of the samples grows like
    eps ||A|| |t|; a span over which ||A||_1 |t1 - t0| exceeds _MAX_PHASE is
    refused, as DOP853 refuses a step below 1e-14 of t.
    """
    if n_out < 2:
        raise ValueError("need at least 2 output points")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t0 == t1:
        raise ValueError("empty integration span")
    y0 = np.asarray(y0, dtype=float)
    dim = y0.size
    dt = (t1 - t0) / (n_out - 1)
    Z = np.zeros((dim + 1, dim + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        Z[:dim, :dim] = np.multiply(A, dt)
        Z[:dim, dim] = np.multiply(b, dt)
        norm = float(np.max(np.sum(np.abs(Z[:dim, :dim]), axis=0)))
    if not norm * (n_out - 1) <= _MAX_PHASE:
        raise IntegrationError(
            f"the generator's norm times the span, {norm * (n_out - 1):.3g}, is over "
            f"{_MAX_PHASE:.0e}: float64 cannot resolve the solution", t0)
    step = _expm(Z, norm).T            # row form: Y[i + 1] = Y[i] @ step
    Y = np.empty((n_out, dim + 1))
    Y[0, :dim], Y[0, dim] = y0, 1.0
    filled = 1
    while True:
        rows = min(filled, n_out - filled)
        Y[filled:filled + rows] = Y[:rows].dot(step)
        filled += rows
        if filled == n_out:
            break
        step = step.dot(step)
    return Trajectory(np.linspace(t0, t1, n_out), Y[:, :dim].copy())
