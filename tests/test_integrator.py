"""Integrator tests: the DOP853 tableau, linear oracle, tolerance scaling,
dense vs exact output, and the batched dense fill against a per-step
reference."""

import math

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients
from scipy.linalg import expm

from spinhodo.integrator import (_A, _B, _C, _D, _E3, _E5, _FILL_BLOCK_ROWS,
                                 _FILL_STEPS, _MAX_FACTOR, _MIN_FACTOR, _PI_ALPHA,
                                 _PI_BETA, _SAFETY, IntegrationError, IntegratorConfig,
                                 _dense_coeffs, _dense_eval, _error_norm, _expm,
                                 _initial_step, _step, integrate, propagate,
                                 resample_uniform)
from spinhodo.qubit import DampingParams, FieldParams, make_bloch_rhs
from spinhodo.qutrit import AnisotropyParams, make_qutrit_rhs_real


def decay_rhs(t, y):
    return -0.7 * y


def oscillator_rhs(t, y):
    return np.array([y[1], -4.0 * y[0]])


def precession_rhs(t, y):
    h = np.array([0.4 * math.cos(3.0 * t), 0.4 * math.sin(3.0 * t), 1.1])
    return np.cross(h, y)


def test_tableau_rows_sum_to_nodes():
    # every stage, the extension's included, is evaluated at t + c_i h
    assert np.allclose(_A.sum(axis=1), _C, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("q", range(8))
def test_weights_meet_quadrature_conditions(q):
    # an 8th-order method integrates t^q exactly for q <= 7
    assert math.isclose(float(_B @ _C[:12] ** q), 1.0 / (q + 1), rel_tol=1e-14)


def test_coefficients_equal_scipy_dop853_table():
    ref = dop853_coefficients
    assert np.array_equal(_C, ref.C)
    assert np.array_equal(_A, ref.A)
    assert np.array_equal(_B, ref.B)
    assert np.array_equal(_D, ref.D)
    # scipy carries the FSAL stage in its error weights, at weight 0
    assert np.array_equal(_E5, ref.E5[:12]) and ref.E5[12] == 0.0
    assert np.array_equal(_E3, ref.E3[:12]) and ref.E3[12] == 0.0


def test_dense_extension_meets_the_step_ends():
    t, h = 0.3, 0.4
    y = np.array([0.0, 0.6, 0.8])
    s, rows, _ = _step(precession_rhs, t, y, precession_rhs(t, y), h)
    coeffs = _dense_coeffs(precession_rhs, t, s, rows, h)
    assert np.array_equal(_dense_eval(coeffs, 0.0), y)
    assert np.allclose(_dense_eval(coeffs, 1.0), s[17], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("system", ["qubit", "qutrit"])
def test_stage_products_match_the_textbook_form(system):
    # each stage argument is one product of the rows h [1 | A] with the stack
    # (y, k_0, ...), and the extension's coefficients one product with
    # (y, k, y_new); both only reorder the rounding of the textbook forms,
    # so they agree to 1e-15 of the largest term that enters the sum
    fp = FieldParams.elliptic(0.7, 0.3, 0.9, 0.6)
    if system == "qubit":
        rhs, dim = make_bloch_rhs(fp, DampingParams(0.1, 0.2, 0.3)), 3
    else:
        rhs, dim = make_qutrit_rhs_real(fp, AnisotropyParams(1.0, 0.3)), 8
    rng = np.random.default_rng(13)
    for _ in range(50):
        t = rng.uniform(-50.0, 50.0)
        h = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 0.5)
        y = rng.normal(size=dim)
        calls = []

        def recording_rhs(t_, y_):
            calls.append((t_, y_.copy()))
            return rhs(t_, y_)

        s, rows, err = _step(recording_rhs, t, y, rhs(t, y), h)
        coeffs = _dense_coeffs(recording_rhs, t, s, rows, h)
        assert np.array_equal(s[0], y)
        k = s[1:17]
        # stages 1-11, the FSAL stage 12 at y_new, the extension's 13-15
        assert len(calls) == 15
        for i, (t_i, arg) in enumerate(calls, start=1):
            terms = np.vstack([y, h * _A[i, :i, None] * k[:i]])
            assert t_i == t + _C[i] * h
            assert np.max(np.abs(arg - (y + h * (_A[i, :i] @ k[:i])))) <= 1e-15 * np.max(np.abs(terms))
        assert np.array_equal(calls[11][1], s[17])
        for weights, estimate in zip([_E5, _E3], err):
            terms = h * weights[:, None] * k[:12]
            assert np.max(np.abs(estimate - h * (weights @ k[:12]))) <= 1e-15 * np.max(np.abs(terms))
        y_new = s[17]
        ydiff = y_new - y
        textbook = [y, ydiff, h * k[0] - ydiff, 2.0 * ydiff - h * (k[0] + k[12]), *(h * (_D @ k))]
        terms = [[y], [y, y_new], [y, y_new, h * k[0]], [y, y_new, h * k[0], h * k[12]],
                 *(h * _D[:, :, None] * k)]
        for c, ref, parts in zip(coeffs, textbook, terms):
            assert np.max(np.abs(c - ref)) <= 1e-15 * np.max(np.abs(parts))


def test_linear_decay():
    traj = integrate(decay_rhs, np.array([2.0]), (0.0, 10.0), n_out=33)
    exact = 2.0 * np.exp(-0.7 * traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-9


def test_tolerance_scaling():
    # tightening rtol tenfold should cut the global error by roughly tenfold
    errs = []
    for rtol in (1e-6, 1e-7, 1e-8):
        cfg = IntegratorConfig(rel_tol=rtol, abs_tol=rtol * 1e-3)
        traj = integrate(decay_rhs, np.array([2.0]), (0.0, 12.0), cfg=cfg, n_out=25)
        exact = 2.0 * np.exp(-0.7 * traj.times)
        errs.append(np.max(np.abs(traj.states[:, 0] - exact)))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_oscillator_dense_output():
    traj = integrate(oscillator_rhs, np.array([1.0, 0.0]), (0.0, 20.0), n_out=801)
    exact = np.cos(2.0 * traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-8


def test_exact_landing_matches_dense():
    y0 = np.array([1.0, 0.0])
    dense = integrate(oscillator_rhs, y0, (0.0, 10.0), n_out=501)
    exact = resample_uniform(oscillator_rhs, 501, y0=y0, t_span=(0.0, 10.0))
    assert np.allclose(dense.states, exact.states, atol=1e-9)
    # forced landings are interpolation-free, so they beat the dense grid
    ref = np.cos(2.0 * exact.times)
    assert np.max(np.abs(exact.states[:, 0] - ref)) < 2e-10


def test_backward_integration():
    traj = resample_uniform(decay_rhs, 41, y0=np.array([1.0]), t_span=(0.0, -3.0))
    exact = np.exp(-0.7 * traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-10


def test_max_error_estimate_reported():
    traj = integrate(decay_rhs, np.array([1.0]), (0.0, 5.0), n_out=11)
    assert 0.0 < traj.max_error_estimate <= 1.0


def test_resample_needs_seven_points():
    with pytest.raises(ValueError):
        resample_uniform(decay_rhs, 5, y0=np.array([1.0]), t_span=(0.0, 1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)


@pytest.mark.parametrize("field, value", [
    ("rel_tol", math.nan), ("rel_tol", math.inf), ("abs_tol", math.nan),
    ("abs_tol", math.inf),
])
def test_config_rejects_bad_setting_by_name(field, value):
    # every comparison with NaN is False, so a bare `<= 0` check lets it through
    with pytest.raises(ValueError, match=f"^{field} must be"):
        IntegratorConfig(**{field: value})


def test_non_finite_step_rejected():
    # NaN compares False with the acceptance threshold; such a step must raise.
    # The field parameters reject NaN themselves, so the NaN comes from the rhs.
    def rhs(t, y):
        return math.nan * y

    with pytest.raises(IntegrationError, match="non-finite error estimate.*t=0"):
        integrate(rhs, np.array([0.0, 0.0, 1.0]), (0.0, 5.0), n_out=11)


def test_non_finite_fsal_stage_rejected():
    # the error estimates give the FSAL stage f(t+h, y_new) no weight, so a NaN
    # there passes the error test, yet it would start the next step and enter
    # the continuous extension.  Calls 1-2 are the start and the startup
    # estimate, 3-13 the stages 1-11 of the first step, 14 its FSAL stage.
    calls = []

    def rhs(t, y):
        calls.append(t)
        return math.nan * y if len(calls) == 14 else -0.7 * y

    with pytest.raises(IntegrationError, match="non-finite derivative.*t=0"):
        integrate(rhs, np.array([1.0]), (0.0, 5.0), n_out=11)
    assert len(calls) == 14


@pytest.mark.parametrize("rate", [1e200, 1e300])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_initial_derivative_rejected(rate):
    # the weighted RMS of f0 squares f0/scale; at inf the startup step was 0,
    # and the trial stage divided by it (ZeroDivisionError)
    with pytest.raises(IntegrationError, match="overflows.*t=0"):
        integrate(lambda t, y: -rate * y, np.array([0.0, 0.0, 1.0]), (0.0, 10.0),
                  n_out=11)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_trial_derivative_at_the_pole_underflows_the_step():
    # at the pole the initial derivative is small, but that of the trial
    # Euler step overflows the norm; the step shrinks until it underflows
    fp = FieldParams.elliptic(1e-10, 1e300, 0.3, 0.5)
    with pytest.raises(IntegrationError, match="step size underflow"):
        integrate(make_bloch_rhs(fp, DampingParams()), np.array([0.0, 0.0, 1.0]), (0.0, 1.0),
                  n_out=11)


@pytest.mark.parametrize("t1", [2.0, -2.0])
def test_rhs_never_evaluated_past_the_span(t1):
    # a slow solution makes the startup estimate ask for a step of about 1e7;
    # its trial Euler step must stay inside the span
    seen = []

    def rhs(t, y):
        seen.append(t)
        return 1e-9 * y

    integrate(rhs, np.array([1.0]), (0.0, t1), n_out=3)
    assert min(seen) >= min(0.0, t1) and max(seen) <= max(0.0, t1)


def test_empty_span_rejected():
    with pytest.raises(ValueError):
        integrate(decay_rhs, np.array([1.0]), (1.0, 1.0), n_out=11)


def test_unit_norm_preserved_through_resampling():
    # undamped precession keeps |y| = 1; forced landings must not disturb it
    def rhs(t, y):
        h = np.array([0.4 * math.cos(3.0 * t), 0.4 * math.sin(3.0 * t), 1.1])
        return np.cross(h, y)

    y0 = np.array([0.0, 0.6, 0.8])
    traj = resample_uniform(rhs, 2001, y0=y0, t_span=(0.0, 30.0))
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def kicked_decay_rhs(t, y):
    # the jump at t = 3.3 makes the controller reject steps
    return -0.7 * y + (5.0 if t > 3.3 else 0.0)


def _integrate_per_step(rhs, y0, t_span, n_out, cfg=None):
    """Reference for integrate: each accepted step evaluates its continuous
    extension on the output times it reaches, inside the stepping loop.

    Returns the states, the statistics of the solve and the number of rows
    left for the final float-slack guard.
    """
    cfg = cfg or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    slack = 1e-12 * span
    out_times = np.linspace(t0, t1, n_out)
    ahead = out_times * direction
    y = np.array(y0, dtype=float)
    t = t0
    f0 = np.asarray(rhs(t0, y), dtype=float)
    out = np.empty((n_out, y.size))
    out[0] = y
    next_out = 1
    h = min(_initial_step(rhs, t0, y, f0, direction, span, cfg), span)
    max_err, err_prev, n_steps, n_rejected = 0.0, 1.0, 0, 0
    while (t1 - t) * direction > 0.0:
        if abs(t1 - t) <= slack:
            break
        h_try = min(h, abs(t1 - t))
        s, rows, err = _step(rhs, t, y, f0, h_try * direction)
        y_new = s[17]
        errn = _error_norm(err, y, y_new, cfg)
        if not errn <= 1.0:
            n_rejected += 1
            h = h_try * max(_MIN_FACTOR, _SAFETY * errn ** (-_PI_ALPHA))
            continue
        t_new = t + h_try * direction
        n_steps += 1
        max_err = max(max_err, errn)
        end = int(np.searchsorted(ahead, t_new * direction + slack, side="right"))
        if end > next_out:
            theta = (out_times[next_out:end] - t) / (h_try * direction)
            coeffs = _dense_coeffs(rhs, t, s, rows, h_try * direction)
            out[next_out:end] = _dense_eval(coeffs, np.clip(theta, 0.0, 1.0)[:, None])
            next_out = end
        errn = max(errn, 1e-10)
        factor = _SAFETY * errn ** (-_PI_ALPHA) * err_prev ** _PI_BETA
        h = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        err_prev = errn
        t, y, f0 = t_new, y_new, s[13]
    guarded = n_out - next_out
    out[next_out:] = y
    return out, (max_err, n_steps, n_rejected), guarded


@pytest.mark.parametrize("case, rhs, y0, t_span, n_out", [
    ("many outputs per step", decay_rhs, [1.0], (0.0, 10.0), 20001),
    ("fewer outputs than steps", precession_rhs, [0.0, 0.6, 0.8], (0.0, 30.0), 11),
    ("backward span", precession_rhs, [0.0, 0.6, 0.8], (0.0, -30.0), 2001),
    ("rejected steps", kicked_decay_rhs, [1.0], (0.0, 10.0), 3001),
    ("short span at large t", decay_rhs, [1.0], (1e6, 1e6 + 4e-7), 5),
])
def test_batched_dense_fill_matches_per_step_reference(case, rhs, y0, t_span, n_out):
    traj = integrate(rhs, np.array(y0), t_span, n_out=n_out)
    ref, stats, guarded = _integrate_per_step(rhs, y0, t_span, n_out)
    assert np.array_equal(traj.states, ref)
    assert (traj.max_error_estimate, traj.n_steps, traj.n_rejected) == stats
    # each case exercises what it is named for
    if case == "many outputs per step":
        # the rows of _FILL_STEPS steps span several blocks of _FILL_BLOCK_ROWS
        assert n_out / traj.n_steps * _FILL_STEPS > 2 * _FILL_BLOCK_ROWS
    elif case == "fewer outputs than steps":
        assert traj.n_steps > 10 * n_out
    elif case == "rejected steps":
        assert traj.n_rejected > 0
    elif case == "short span at large t":
        # the float slack scales with the span, not with |t| = 1e6 (1e-12 |t|
        # would exceed the span): the steps are taken and reach every row
        assert traj.n_steps > 0 and guarded == 0
        exact = np.exp(-0.7 * (traj.times - t_span[0]))
        assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-12


@pytest.mark.parametrize("case, rhs, y0, t_span, n_out", [
    ("rejected steps", kicked_decay_rhs, [1.0], (0.0, 10.0), 3001),
    ("fewer outputs than steps", precession_rhs, [0.0, 0.6, 0.8], (0.0, 30.0), 11),
    ("backward span", precession_rhs, [0.0, 0.6, 0.8], (0.0, -30.0), 2001),
])
@pytest.mark.parametrize("solver", ["integrate", "resample_uniform"])
def test_rhs_evals_count_every_call(solver, case, rhs, y0, t_span, n_out):
    calls = []

    def counting_rhs(t, y):
        calls.append(t)
        return rhs(t, y)

    if solver == "integrate":
        traj = integrate(counting_rhs, np.array(y0), t_span, n_out=n_out)
    else:
        traj = resample_uniform(counting_rhs, n_out, np.array(y0), t_span)
    assert traj.rhs_evals == len(calls)
    # the start and the startup estimate, 12 per attempted step, and the 3
    # extension stages per step that reaches the grid (dense output only)
    extension = traj.rhs_evals - 2 - 12 * (traj.n_steps + traj.n_rejected)
    if solver == "integrate":
        assert extension % 3 == 0 and 0 < extension <= 3 * traj.n_steps
    else:
        assert extension == 0
    if case == "rejected steps":
        assert traj.n_rejected > 0


# ------------------------------------------------------------------ propagate

@pytest.mark.parametrize("scale", [1e-3, 0.5, 1.09, 3.0, 40.0])
def test_expm_matches_scipy(scale):
    rng = np.random.default_rng(7)
    for Z in (rng.normal(size=(4, 4)), rng.normal(size=(9, 9)),
              np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]])):  # defective
        Z = Z * (scale / np.abs(Z).sum(axis=0).max())
        ref = expm(Z)
        assert np.max(np.abs(_expm(Z, scale) - ref)) < 1e-14 * np.abs(ref).max() * max(1.0, scale)


@pytest.mark.parametrize("t_span, n_out", [((0.0, 7.0), 37), ((1.5, -6.0), 1000),
                                           ((0.0, 30.0), 2)])
def test_propagate_matches_integrate(t_span, n_out):
    rng = np.random.default_rng(11)
    A = rng.normal(size=(5, 5)) - 0.5 * np.eye(5)
    A[0, 4] = 3.0                          # far from normal
    b, y0 = rng.normal(size=5), rng.normal(size=5)
    if n_out == 2:
        A = 0.3 * (A - A.T)                # a long undamped span in one grid step
    traj = propagate(A, b, y0, t_span, n_out=n_out)
    ref = integrate(lambda t, y: A @ y + b, y0, t_span,
                    IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15), n_out=n_out)
    assert np.array_equal(traj.times, ref.times)
    assert traj.n_steps is None and traj.rhs_evals is None
    assert np.array_equal(traj.states[0], y0)
    scale = np.max(np.abs(ref.states), axis=0)
    assert np.max(np.abs(traj.states - ref.states) / scale) < 1e-11


def test_propagate_matches_the_relaxation_closed_form():
    # y' = -g (y - y_eq) componentwise: y = y_eq + (y0 - y_eq) e^{-g t}
    g = np.array([0.0, 0.3, 1.7, 25.0])
    y_eq, y0 = np.array([0.0, 0.5, -2.0, 1.0]), np.array([1.0, -1.0, 0.25, 3.0])
    traj = propagate(-np.diag(g), g * y_eq, y0, (0.0, 4.0), n_out=401)
    ref = y_eq + (y0 - y_eq) * np.exp(-g * traj.times[:, None])
    assert np.max(np.abs(traj.states - ref)) < 1e-14


@pytest.mark.parametrize("rate, span", [(1e20, 1e3), (1e300, 1e300), (1.0, 1e300)])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_propagate_rejects_a_span_float64_cannot_resolve(rate, span):
    # the rounding of the samples grows like eps ||A|| t; in the second case
    # A dt itself overflows
    A = rate * np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(IntegrationError, match="float64 cannot resolve"):
        propagate(A, np.zeros(2), [1.0, 0.0], (0.0, span), n_out=101)


def test_propagate_validates_its_grid():
    with pytest.raises(ValueError, match="at least 2"):
        propagate(np.eye(2), np.zeros(2), [1.0, 0.0], (0.0, 1.0), n_out=1)
    with pytest.raises(ValueError, match="empty"):
        propagate(np.eye(2), np.zeros(2), [1.0, 0.0], (1.0, 1.0), n_out=5)
