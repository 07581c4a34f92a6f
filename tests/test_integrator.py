"""Integrator tests: linear oracle, tolerance scaling, dense vs exact output."""

import math

import numpy as np
import pytest

from spinhodo.integrator import (IntegrationError, IntegratorConfig, integrate,
                                 resample_uniform)


def decay_rhs(t, y):
    return -0.7 * y


def oscillator_rhs(t, y):
    return np.array([y[1], -4.0 * y[0]])


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
    ("output_points_per_period", 0), ("output_points_per_period", -5),
    ("output_points_per_period", 2.5),
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
