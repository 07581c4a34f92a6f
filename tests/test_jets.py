"""Equation-of-motion jets and the dense output they are evaluated on.

Property tests over random drives, k in {0, (0, 1), 1}: the dense states of
`integrate` against the closed forms, the jets' first derivative against
the independent right-hand sides, and the higher jets against central
differences of the lower ones along the closed forms.  The jets are those
of the spin part, the first three components of either system.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipj

from spinhodo.integrator import integrate
from spinhodo.qubit import (DampingParams, FieldParams, InitialAngles,
                            analytic_elliptic_resonance, analytic_rabi_general,
                            bloch_generators, eom_jets, make_bloch_rhs)
from spinhodo.qutrit import (AnisotropyParams, analytic_qutrit_resonance,
                             bloch8_from_density, qutrit_generators)

from oracles import bloch_rhs, qutrit_rhs


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


MODULI = st.one_of(st.just(0.0), _finite(0.01, 0.99), st.just(1.0))


def random_density(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def closed_form(k, h, H, omega, theta0, phi0, gamma):
    """A drive and its exact solution: any circular drive and initial state
    at k = 0, the consistent elliptic drive at resonance from the pole
    otherwise."""
    if k == 0.0:
        init = InitialAngles(theta0, phi0)
        return (FieldParams.circular(h, H, omega), init.bloch(),
                lambda t: analytic_rabi_general(t, init, h, H, omega, gamma))
    return (FieldParams.elliptic(h, omega, omega, k), np.array([0.0, 0.0, 1.0]),
            lambda t: analytic_elliptic_resonance(t, h, omega, k, gamma))


@settings(max_examples=60, deadline=None)
@given(k=MODULI, h=_finite(-3, 3), H=_finite(-3, 3), omega=_finite(-3, 3),
       theta0=_finite(0, math.pi), phi0=_finite(-7, 7), gamma=_finite(0, 0.5),
       undamped=st.booleans(), t1=_finite(0.5, 20), n_out=st.integers(2, 1500))
def test_dense_states_match_closed_form(k, h, H, omega, theta0, phi0, gamma, undamped,
                                        t1, n_out):
    gamma = 0.0 if undamped else gamma
    fp, y0, exact = closed_form(k, h, H, omega, theta0, phi0, gamma)
    traj = integrate(make_bloch_rhs(fp, DampingParams.uniform(gamma)), y0, (0.0, t1),
                     n_out=n_out)
    assert np.max(np.abs(traj.states - exact(traj.times))) < 1e-8
    if gamma == 0.0:
        assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(h=_finite(-5, 5), H=_finite(-5, 5), omega=_finite(-5, 5), k=MODULI,
       gamma1=_finite(0, 1), gamma2=_finite(0, 1), r_eq=_finite(-1, 1),
       Q=_finite(-5, 5), d=_finite(-5, 5), linear=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_first_jet_matches_right_hand_sides(h, H, omega, k, gamma1, gamma2, r_eq, Q, d,
                                            linear, seed):
    # 600 rows at random times: the jets cross block boundaries
    fp = FieldParams.linear(h, H, omega) if linear else FieldParams.elliptic(h, H, omega, k)
    dp, ap = DampingParams(gamma1, gamma2, r_eq), AnisotropyParams(Q, d)
    rng = np.random.default_rng(seed)
    ts = rng.uniform(-30.0, 30.0, 600)
    R = rng.normal(size=(600, 3))
    dR, _, _ = eom_jets(fp, *bloch_generators(fp, dp), ts, R)
    expect = np.array([bloch_rhs(t, r, fp, dp) for t, r in zip(ts, R)])
    assert np.max(np.abs(dR - expect)) < 1e-12
    rhos = [random_density(rng) for _ in range(5)]
    qs = np.array([bloch8_from_density(rho) for rho in rhos])
    dq, _, _ = eom_jets(fp, *qutrit_generators(fp, ap), ts[:5], qs)
    expect = np.array([bloch8_from_density(qutrit_rhs(t, rho, fp, ap))
                       for t, rho in zip(ts, rhos)])
    assert np.max(np.abs(dq - expect[:, :3])) < 1e-12


# central differences of step DELTA: truncation DELTA^2/6 |y^(j+2)|, with
# |y^(j)| <= (2 L)^j for the amplitude scale L below, and rounding about
# 1e-16 |y^(j)| / DELTA; both stay under JET_BOUND (1 + L)^(j+2)
DELTA = 1e-4
JET_BOUND = 1e-7


@settings(max_examples=60, deadline=None)
@given(k=MODULI, h=_finite(-3, 3), H=_finite(-3, 3), omega=_finite(-3, 3),
       theta0=_finite(0, math.pi), phi0=_finite(-7, 7), gamma=_finite(0, 0.5),
       Q=_finite(-3, 3), t=_finite(-10, 10))
def test_higher_jets_match_central_differences(k, h, H, omega, theta0, phi0, gamma, Q, t):
    ts = np.array([t - DELTA, t, t + DELTA])
    fp, _, exact = closed_form(k, h, H, omega, theta0, phi0, gamma)
    scale = abs(h) + abs(omega) + abs(fp.H) + gamma
    systems = [(fp, *bloch_generators(fp, DampingParams.uniform(gamma)), exact(ts))]
    if k == 0.0:   # the qutrit closed form: circular drive at resonance, d = 0
        fq = FieldParams.circular(h, omega, omega)
        systems.append((fq, *qutrit_generators(fq, AnisotropyParams(Q, 0.0)),
                        analytic_qutrit_resonance(ts, h, Q, omega)))
        scale = max(scale, 2 * abs(h) + abs(Q) + 2 * abs(omega))
    for drive, G, b, y in systems:
        d1, d2, d3 = eom_jets(drive, G, b, ts, y)
        for j, (lower, upper) in enumerate(((d1, d2), (d2, d3)), start=2):
            central = (lower[2] - lower[0]) / (2 * DELTA)
            assert np.max(np.abs(central - upper[1])) < JET_BOUND * (1 + scale) ** (j + 2)


def test_jets_of_a_uniform_grid_cross_blocks():
    # one eom_jets call over 2000 samples equals calls over its pieces
    fp = FieldParams.elliptic(0.5, 0.3, 0.7, 0.6)
    G, b = bloch_generators(fp, DampingParams(0.05, 0.07, 0.1))
    ts = np.linspace(0.0, 40.0, 2000)
    y = analytic_elliptic_resonance(ts, 0.5, 0.7, 0.6)
    whole = eom_jets(fp, G, b, ts, y)
    for lo, hi in ((0, 1), (255, 257), (1999, 2000), (700, 1300)):
        part = eom_jets(fp, G, b, ts[lo:hi], y[lo:hi])
        for a, p in zip(whole, part):
            assert np.allclose(a[lo:hi], p, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("k", [0.0, 0.6, 1.0])
def test_jets_drive_weights_match_scipy(k):
    # with y = e_3 held fixed and G_i = e_r e_3^T for the weight i shown in
    # spin row r, the jets are the drive weights w = (1, cn, sn, dn) and
    # their first two time derivatives
    omega, delta = 0.8, 1e-5
    ts = np.linspace(-4.0, 9.0, 53)
    fp = FieldParams.elliptic(1.0, 1.0, omega, k)
    y = np.zeros((len(ts), 4))
    y[:, 3] = 1.0

    def weights(t, shown):
        sn, cn, dn, _ = ellipj(omega * t, k * k)
        return np.stack([np.ones_like(sn), cn, sn, dn], axis=-1)[:, shown]

    def jets(t, shown):
        G = np.zeros((4, 4, 4))
        G[shown, [0, 1, 2], 3] = 1.0
        return eom_jets(fp, G, np.zeros(4), t, y)

    for shown in ([1, 2, 3], [0, 0, 0]):
        w0, w1, w2 = jets(ts, shown)
        assert np.max(np.abs(w0 - weights(ts, shown))) < 1e-14
        assert np.max(np.abs(
            w1 - (weights(ts + delta, shown) - weights(ts - delta, shown)) / (2 * delta))) < 1e-9
        assert np.max(np.abs(
            w2 - (jets(ts + delta, shown)[1] - jets(ts - delta, shown)[1]) / (2 * delta))) < 1e-9
