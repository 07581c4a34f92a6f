"""Elliptic function tests against independent quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipeinc, ellipj

from spinhodo.elliptic import complete_k, incomplete_e, jacobi_sncndn, sncndn_of


def quad_K(k):
    """Quadrature oracle for the complete first-kind integral."""
    val, err = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                    0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err < 1e-12
    return val


def test_sncndn_at_zero():
    assert jacobi_sncndn(0.0, 0.5) == (0.0, 1.0, 1.0)


def test_trigonometric_limit():
    u = 1.3
    sn, cn, dn = jacobi_sncndn(u, 0.0)
    assert sn == pytest.approx(math.sin(u), abs=1e-15)
    assert cn == pytest.approx(math.cos(u), abs=1e-15)
    assert dn == 1.0


def test_hyperbolic_limit():
    u = 1.3
    sn, cn, dn = jacobi_sncndn(u, 1.0)
    assert sn == pytest.approx(math.tanh(u), abs=1e-15)
    assert cn == pytest.approx(1.0 / math.cosh(u), abs=1e-15)
    assert dn == pytest.approx(1.0 / math.cosh(u), abs=1e-15)


@pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999])
def test_sncndn_identities(k):
    for u in np.linspace(-10.0, 10.0, 201):
        sn, cn, dn = jacobi_sncndn(u, k)
        assert abs(sn * sn + cn * cn - 1.0) < 1e-12
        assert abs(dn * dn + (k * sn) ** 2 - 1.0) < 1e-12


@pytest.mark.parametrize("k", [0.2, 0.5, 0.8, 0.95])
def test_sncndn_against_scipy(k):
    for u in np.linspace(-8.0, 8.0, 97):
        sn, cn, dn = jacobi_sncndn(u, k)
        rs, rc, rd, _ = ellipj(u, k * k)
        assert abs(sn - rs) < 1e-12
        assert abs(cn - rc) < 1e-12
        assert abs(dn - rd) < 1e-12


@pytest.mark.parametrize("k", [0.5, 0.999])
@pytest.mark.parametrize("u", [1e-300, -1e-200, 1e-160, 1e-120, 3e-9, 2e-8, 1e-6])
def test_sncndn_tiny_argument(u, k):
    # the AGM back substitution divides by sn(u), which overflows for tiny u
    sn, cn, dn = jacobi_sncndn(u, k)
    rs, rc, rd, _ = ellipj(u, k * k)
    assert sn == pytest.approx(rs, rel=1e-15, abs=0.0)
    assert cn == pytest.approx(rc, abs=1e-15)
    assert dn == pytest.approx(rd, abs=1e-15)


def test_quarter_period_shift():
    # oracle: K from direct quadrature of the defining integral
    k = 0.8
    K = quad_K(k)
    sn, cn, dn = jacobi_sncndn(2.0 * K, k)
    assert abs(sn) < 1e-12
    assert cn == pytest.approx(-1.0, abs=1e-12)
    assert dn == pytest.approx(1.0, abs=1e-12)


def test_periodicity():
    k, u = 0.7, 0.3
    K = complete_k(k)
    s0, c0, d0 = jacobi_sncndn(u, k)
    s1, c1, d1 = jacobi_sncndn(u + 4.0 * K, k)
    assert s1 == pytest.approx(s0, abs=1e-10)
    assert c1 == pytest.approx(c0, abs=1e-10)
    # dn has half the period of sn and cn
    s2, c2, d2 = jacobi_sncndn(u + 2.0 * K, k)
    assert d2 == pytest.approx(d0, abs=1e-10)
    assert s2 == pytest.approx(-s0, abs=1e-10)


def test_sncndn_domain_errors():
    with pytest.raises(ValueError):
        jacobi_sncndn(math.inf, 0.5)
    with pytest.raises(ValueError):
        jacobi_sncndn(1.0, -0.1)
    with pytest.raises(ValueError):
        jacobi_sncndn(1.0, 1.1)
    # the evaluator checks its modulus when built and its argument on every call
    with pytest.raises(ValueError, match="modulus"):
        sncndn_of(1.1)
    for k in (0.0, 0.6, 1.0):
        for u in (math.nan, np.array([0.3, -math.inf, 1.0]), np.full((2, 2), math.nan)):
            with pytest.raises(ValueError, match="^argument must be finite"):
                sncndn_of(k)(u)


# |u| < 1e-8 takes the (u, 1, 1) branch; 0.0 and -0.0 sit on it
TINY_ARGS = [0.0, -0.0, 1e-300, -3e-9, 9.99e-9, 1e-8, -1e-8, 1.1e-8]


@pytest.mark.parametrize("k", [0.0, 0.6, 1.0])
def test_sncndn_array_matches_scalar(k):
    f = sncndn_of(k)
    u = np.concatenate([np.linspace(-40.0, 40.0, 1601), TINY_ARGS])
    arrays = np.array(f(u))
    scalars = np.array([f(float(x)) for x in u]).T
    # the same arithmetic; numpy's elementary functions may round an ulp
    # apart from math's (tanh and cosh at k = 1 do here)
    assert np.max(np.abs(arrays - scalars)) <= 2 * np.spacing(1.0)
    assert np.array_equal(np.signbit(arrays[0][-8:]), np.signbit(scalars[0][-8:]))
    grid = f(u[:1600].reshape(40, 40))
    assert all(a.shape == (40, 40) for a in grid)
    assert all(isinstance(v, float) for v in f(np.float64(0.3)) + f(np.array(0.3)))


def test_complete_k_values():
    assert complete_k(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    # at k = 0.6 and 0.97 the two means settle one ulp apart and never meet
    for k in (0.3, 0.5, 0.6, 0.9, 0.97):
        assert complete_k(k) == pytest.approx(quad_K(k), abs=1e-12)


def test_complete_k_errors():
    with pytest.raises(ValueError):
        complete_k(1.0)
    with pytest.raises(ValueError):
        complete_k(1.5)


def test_incomplete_e_trivial():
    for phi in (0.3, 1.0, -2.5):
        assert incomplete_e(phi, 0.0) == pytest.approx(phi, abs=1e-14)
    assert incomplete_e(math.pi / 2.0, 1.0) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("m", [-100.0, -0.16, -0.5, 0.25, 0.8])
@pytest.mark.parametrize("phi", [0.4, 1.2, math.pi, 2.0 * math.pi, -1.7])
def test_incomplete_e_against_quadrature(m, phi):
    oracle, err = quad(lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2), 0.0, phi,
                       epsabs=1e-13, epsrel=1e-13)
    assert incomplete_e(phi, m) == pytest.approx(oracle, abs=5e-12)


def test_incomplete_e_against_scipy_negative_parameter():
    # scipy's second-kind incomplete integral is an independent route for m < 0
    for m in (-9.0, -0.7):
        for phi in (0.5, 2.0, 5.0):
            assert incomplete_e(phi, m) == pytest.approx(ellipeinc(phi, m), rel=1e-12)


def test_incomplete_e_additivity():
    m = -0.37
    a, b = 0.9, 1.7
    lhs = incomplete_e(a + b, m)
    seg, _ = quad(lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2), a, a + b,
                  epsabs=1e-13, epsrel=1e-13)
    assert lhs == pytest.approx(incomplete_e(a, m) + seg, abs=1e-10)


def test_incomplete_e_monotone_in_phi():
    m = -2.3
    phis = np.linspace(0.0, 3.0 * math.pi, 60)
    vals = [incomplete_e(p, m) for p in phis]
    assert np.all(np.diff(vals) > 0.0)


def test_incomplete_e_fig5_arc_length():
    # full-turn arc length of the resonance trajectory, published value 6.53
    s = incomplete_e(2.0 * math.pi, -(0.2 / 0.5) ** 2)
    assert abs(s - 6.53) / 6.53 < 0.005


def test_incomplete_e_domain_error():
    with pytest.raises(ValueError):
        incomplete_e(math.pi, 4.0)  # m sin^2 exceeds 1 inside the range
