"""Invariants of the integrated systems over random parameters (hypothesis):
the qutrit level populations sum to one, and integrating forward and then
back returns the initial state for both systems."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinhodo.integrator import IntegratorConfig, integrate
from spinhodo.qubit import DampingParams, FieldParams, InitialAngles, make_bloch_rhs
from spinhodo.qutrit import (AnisotropyParams, bloch8_from_density,
                             initial_density_north, make_qutrit_rhs_real,
                             populations)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


MODULI = st.one_of(st.just(0.0), _finite(0.01, 0.99), st.just(1.0))
Q0 = bloch8_from_density(initial_density_north())


@settings(max_examples=40, deadline=None)
@given(h=_finite(-2, 2), H=_finite(-2, 2), omega=_finite(-2, 2), Q=_finite(-2, 2),
       d=_finite(-2, 2), k=MODULI, t1=_finite(0.5, 20), n_out=st.integers(2, 800))
def test_population_sum_over_random_qutrit_runs(h, H, omega, Q, d, k, t1, n_out):
    fp = FieldParams.elliptic(h, H, omega, k)
    traj = integrate(make_qutrit_rhs_real(fp, AnisotropyParams(Q, d)), Q0, (0.0, t1),
                     n_out=n_out)
    pops = populations(traj.states[:, 2], traj.states[:, 5])   # also range-checks them
    assert pops.shape == (3, n_out)
    assert np.max(np.abs(pops.sum(axis=0) - 1.0)) < 1e-9


def _round_trip_bound(dim, forward, backward, cfg, gamma_max, duration):
    """Largest |y_back(0) - y0| the tolerance allows.

    An accepted step has an error norm of at most 1, so its estimated local
    error has 2-norm at most sqrt(dim) (abs_tol + rel_tol Y), with Y the
    largest |component| met on either leg.  The norm is Hairer's DOP853
    combination e5^2 / sqrt(e5^2 + 0.01 e3^2) of the embedded 5th- and
    3rd-order estimates, which at small steps reads e5^2 / (0.1 e3) and so
    has order h^8, that of a 7th-order solution, while the propagated one is
    of 8th order: a factor 10 covers the estimate not being a strict bound.
    Both systems read y' = M(t) y + b with M antisymmetric minus a
    non-negative diagonal (the damping), so a perturbation never grows
    forward in time and grows at most by exp(gamma_max T) backward over the
    whole span.  Each of the two legs' local errors reaches t = 0 through at
    most that growth.
    """
    y_max = max(np.max(np.abs(forward.states)), np.max(np.abs(backward.states)))
    per_step = math.sqrt(dim) * (cfg.abs_tol + cfg.rel_tol * y_max)
    return 10.0 * (forward.n_steps + backward.n_steps) * per_step * math.exp(
        gamma_max * duration)


def _round_trip(rhs, y0, duration, cfg, gamma_max):
    forward = integrate(rhs, y0, (0.0, duration), cfg, n_out=2)
    backward = integrate(rhs, forward.states[-1], (duration, 0.0), cfg, n_out=2)
    bound = _round_trip_bound(len(y0), forward, backward, cfg, gamma_max, duration)
    return float(np.linalg.norm(backward.states[-1] - y0)), bound


@settings(max_examples=40, deadline=None)
@given(h=_finite(-2, 2), H=_finite(-2, 2), omega=_finite(-2, 2), k=MODULI,
       linear=st.booleans(), theta0=_finite(0, math.pi), phi0=_finite(-7, 7),
       gamma1=_finite(0, 0.2), gamma2=_finite(0, 0.2), r_eq=_finite(-1, 1),
       duration=_finite(0.5, 20))
def test_qubit_forward_then_back_returns_initial_state(h, H, omega, k, linear, theta0,
                                                       phi0, gamma1, gamma2, r_eq,
                                                       duration):
    fp = FieldParams.linear(h, H, omega) if linear else FieldParams.elliptic(h, H, omega, k)
    cfg = IntegratorConfig()
    error, bound = _round_trip(make_bloch_rhs(fp, DampingParams(gamma1, gamma2, r_eq)),
                               InitialAngles(theta0, phi0).bloch(), duration, cfg,
                               max(gamma1, gamma2))
    assert error <= bound


@settings(max_examples=40, deadline=None)
@given(h=_finite(-2, 2), H=_finite(-2, 2), omega=_finite(-2, 2), Q=_finite(-2, 2),
       d=_finite(-2, 2), k=MODULI, duration=_finite(0.5, 20))
# tiny error estimates make n5 + 0.01 n3 of the error norm underflow to 0
@example(h=0.0, H=1.0, omega=0.0, Q=0.0, d=7.7e-163, k=0.0, duration=1.0)
def test_qutrit_forward_then_back_returns_initial_state(h, H, omega, Q, d, k, duration):
    fp = FieldParams.elliptic(h, H, omega, k)
    error, bound = _round_trip(make_qutrit_rhs_real(fp, AnisotropyParams(Q, d)), Q0,
                               duration, IntegratorConfig(), 0.0)
    assert error <= bound
