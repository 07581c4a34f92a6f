"""Qutrit tests: Hamiltonian structure, unitary evolution, coherence-vector
extraction, populations, polarization, exact resonance solution."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinhodo.qubit import FieldParams, field_at
from spinhodo.qutrit import (LAMBDA8, AnisotropyParams, S1, S2, S3,
                             analytic_qutrit_resonance, bloch8_from_density,
                             closed_trajectory_amplitude_qutrit, evolve_density,
                             initial_density_north, make_qutrit_rhs_real,
                             populations, polarization_series,
                             qutrit_energy, qutrit_hamiltonian,
                             two_photon_frequency)

from oracles import qutrit_rhs

FIG8_H, FIG8_Q = 3.0 / 8.0, 1.0
FIG8_F = math.hypot(2 * FIG8_H, FIG8_Q)     # 5/4 for the x=4, y=5 pair


def no_field():
    return FieldParams.circular(0.0, 0.0, 1.0)


def test_spin_matrices():
    comm = S1 @ S2 - S2 @ S1
    assert np.allclose(comm, 1j * S3)
    assert np.allclose(S1 @ S1 + S2 @ S2 + S3 @ S3, 2.0 * np.eye(3))  # S(S+1)


def test_basis_orthonormality():
    gram = np.einsum('aij,bji->ab', LAMBDA8, LAMBDA8)
    assert np.allclose(gram, 3.0 * np.eye(8), atol=1e-14)
    for L in LAMBDA8:
        assert np.allclose(L, L.conj().T)
        assert abs(np.trace(L)) < 1e-14


def test_hamiltonian_axial_term():
    H = qutrit_hamiltonian(0.0, no_field(), AnisotropyParams(Q=0.9, d=0.0))
    assert np.allclose(H, np.diag([0.3, -0.6, 0.3]))


def test_hamiltonian_longitudinal():
    fp = FieldParams.circular(0.0, 1.3, 1.0)
    H = qutrit_hamiltonian(0.0, fp, AnisotropyParams())
    assert np.allclose(H, 1.3 * np.diag([1.0, 0.0, -1.0]))


def test_hamiltonian_traceless_and_hermitian():
    fp = FieldParams.circular(0.4, 0.7, 1.1)
    H = qutrit_hamiltonian(0.83, fp, AnisotropyParams(Q=0.5, d=0.2))
    assert abs(np.trace(H)) < 1e-14
    assert np.allclose(H, H.conj().T)


def test_rhs_maximally_mixed_is_stationary():
    fp = FieldParams.circular(0.4, 0.7, 1.1)
    out = qutrit_rhs(0.3, np.eye(3, dtype=complex) / 3.0, fp,
                     AnisotropyParams(Q=0.5, d=0.2))
    assert np.max(np.abs(out)) < 1e-15


def test_rhs_eigenstate_is_stationary():
    out = qutrit_rhs(0.0, initial_density_north(), no_field(),
                     AnisotropyParams(Q=0.7, d=0.0))
    assert np.max(np.abs(out)) < 1e-15


def test_rhs_traceless_hermitian():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    fp = FieldParams.circular(0.4, 0.7, 1.1)
    out = qutrit_rhs(0.5, rho, fp, AnisotropyParams(Q=0.5, d=0.2))
    assert abs(np.trace(out)) < 1e-14
    assert np.allclose(out, out.conj().T)


def random_density(rng):
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


DRIVES = [FieldParams.circular(0.4, 0.7, 1.1), FieldParams.linear(-0.6, 0.3, 0.9),
          FieldParams.elliptic(0.5, 0.8, 0.7, 0.6)]


@pytest.mark.parametrize("fp", DRIVES, ids=["circular", "linear", "k0.6"])
def test_generator_rhs_matches_liouville(fp):
    ap = AnisotropyParams(Q=0.8, d=-0.35)
    rhs = make_qutrit_rhs_real(fp, ap)
    rng = np.random.default_rng(5)
    for t in (0.0, 1.3, -4.2, 17.9):
        rho = random_density(rng)
        expect = bloch8_from_density(qutrit_rhs(t, rho, fp, ap))
        assert np.max(np.abs(rhs(t, bloch8_from_density(rho)) - expect)) < 1e-12


@pytest.mark.parametrize("fp", DRIVES, ids=["circular", "linear", "k0.6"])
def test_energy_from_q_matches_trace(fp):
    ap = AnisotropyParams(Q=0.8, d=-0.35)
    rng = np.random.default_rng(9)
    ts = np.array([0.0, 2.1, 7.7])
    rhos = [random_density(rng) for _ in ts]
    qs = np.array([bloch8_from_density(r) for r in rhos])
    expect = [np.trace(r @ qutrit_hamiltonian(t, fp, ap)).real for r, t in zip(rhos, ts)]
    assert np.allclose(qutrit_energy(qs, field_at(ts, fp), ap), expect, rtol=0, atol=1e-14)
    assert qutrit_energy(qs[1], field_at(ts[1], fp), ap) == pytest.approx(expect[1], abs=1e-14)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(h=_finite(-5, 5), H=_finite(-5, 5), omega=_finite(-5, 5), Q=_finite(-5, 5),
       d=_finite(-5, 5), k=_finite(0, 1), t=_finite(-50, 50),
       linear=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_generator_rhs_property(h, H, omega, Q, d, k, t, linear, seed):
    fp = FieldParams.linear(h, H, omega) if linear else FieldParams.elliptic(h, H, omega, k)
    ap = AnisotropyParams(Q=Q, d=d)
    rho = random_density(np.random.default_rng(seed))
    q = bloch8_from_density(rho)
    dq = make_qutrit_rhs_real(fp, ap)(t, q)
    assert np.max(np.abs(dq - bloch8_from_density(qutrit_rhs(t, rho, fp, ap)))) < 1e-12
    assert abs(q @ dq) < 1e-12      # antisymmetric M(t): |q| is conserved


@settings(max_examples=100, deadline=None)
@given(h=_finite(-5, 5), H=_finite(-5, 5), Q=_finite(-5, 5), d=_finite(-5, 5),
       k=_finite(0, 1), t=_finite(-50, 50), linear=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
# a subnormal d with no other term: the relative bound alone is 0 there
@example(h=0.0, H=0.0, Q=0.0, d=2.225073858507e-311, k=0.0, t=0.0, linear=False, seed=0)
def test_static_drive_rhs_matches_liouville(h, H, Q, d, k, t, linear, seed):
    # at omega = 0 the drive is its value at argument 0, (sn, cn, dn) = (0, 1, 1)
    fp = FieldParams.linear(h, H, 0.0) if linear else FieldParams.elliptic(h, H, 0.0, k)
    ap = AnisotropyParams(Q=Q, d=d)
    rhs = make_qutrit_rhs_real(fp, ap)
    rho = random_density(np.random.default_rng(seed))
    q = bloch8_from_density(rho)
    scale = (abs(fp.h1) + abs(fp.h2) + abs(H) + abs(Q) + abs(d)) * np.sum(np.abs(q))
    dq = rhs(t, q) - bloch8_from_density(qutrit_rhs(t, rho, fp, ap))
    # the two formulas may round apart by a few grains below the normal range
    assert np.max(np.abs(dq)) <= 1e-15 * scale + 16 * math.ulp(0.0)


def test_evolve_density_states_are_q():
    fp = FieldParams.circular(0.45, 0.2, 0.2)
    times, rhos, traj = evolve_density(fp, AnisotropyParams(Q=0.8, d=0.15),
                                       initial_density_north(), 5.0, n_out=21)
    assert traj.states.shape == (21, 8)
    assert np.array_equal(traj.states[0], bloch8_from_density(initial_density_north()))
    qs = np.array([bloch8_from_density(r) for r in rhos])
    assert np.max(np.abs(qs - traj.states)) < 1e-15
    assert np.array_equal(rhos, np.conj(np.transpose(rhos, (0, 2, 1))))


def test_q_distance_is_frobenius_distance():
    rng = np.random.default_rng(2)
    a, b = random_density(rng), random_density(rng)
    dq = bloch8_from_density(a) - bloch8_from_density(b)
    assert np.linalg.norm(dq) / math.sqrt(3.0) == pytest.approx(np.linalg.norm(a - b), rel=1e-14)


def test_purity_and_trace_conserved():
    fp = FieldParams.circular(FIG8_H, 0.0, 0.0)
    T = 10 * 2 * math.pi / FIG8_F
    times, rhos, _ = evolve_density(fp, AnisotropyParams(Q=FIG8_Q),
                                    initial_density_north(), T, n_out=401)
    traces = np.real(np.einsum('nii->n', rhos))
    purity = np.real(np.einsum('nij,nji->n', rhos, rhos))
    assert np.max(np.abs(traces - 1.0)) < 1e-9
    assert np.max(np.abs(purity - 1.0)) < 1e-9


def test_bloch8_of_initial_state():
    q = bloch8_from_density(initial_density_north())
    expect = np.zeros(8)
    expect[2] = math.sqrt(1.5)
    expect[5] = 1.0 / math.sqrt(2.0)
    assert np.allclose(q, expect, atol=1e-15)


def test_bloch8_of_maximally_mixed():
    q = bloch8_from_density(np.eye(3, dtype=complex) / 3.0)
    assert np.max(np.abs(q)) < 1e-15


def test_populations_recover_diagonal():
    rng = np.random.default_rng(11)
    for _ in range(5):
        diag = rng.uniform(0.1, 1.0, 3)
        diag /= diag.sum()
        rho = np.diag(diag).astype(complex)
        q = bloch8_from_density(rho)
        p = populations(q[2], q[5])
        assert np.allclose(p, diag, atol=1e-14)


def test_populations_examples():
    p = populations(math.sqrt(1.5), 1.0 / math.sqrt(2.0))
    assert np.allclose(p, [1.0, 0.0, 0.0], atol=1e-15)
    p = populations(-math.sqrt(1.5), 1.0 / math.sqrt(2.0))
    assert np.allclose(p, [0.0, 0.0, 1.0], atol=1e-15)
    p = populations(0.0, 0.0)
    assert np.allclose(p, [1 / 3, 1 / 3, 1 / 3])
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_populations_reject_inconsistent_input():
    with pytest.raises(ValueError):
        populations(10.0, 0.0)


def test_polarization_series_flags_degenerate_rows():
    qs = np.zeros((3, 8))
    qs[0, 0] = 1.0
    qs[2, 2] = -2.0
    p = polarization_series(qs)
    assert np.allclose(p[0], [1, 0, 0])
    assert np.all(np.isnan(p[1]))
    assert np.allclose(p[2], [0, 0, -1])


def test_analytic_resonance_initial_value():
    q0 = analytic_qutrit_resonance(0.0, FIG8_H, FIG8_Q, 0.0)
    assert q0[2] == pytest.approx(math.sqrt(1.5), abs=1e-15)
    assert q0[5] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert np.max(np.abs(np.delete(q0, [2, 5]))) < 1e-15


def test_analytic_resonance_degenerate_limit():
    q = analytic_qutrit_resonance(np.linspace(0, 5, 7), 0.0, 0.0, 0.0)
    assert np.allclose(q[:, 2], math.sqrt(1.5))
    assert np.allclose(q[:, 5], 1.0 / math.sqrt(2.0))


def test_population_flip_at_half_period():
    t_half = 5 * 2 * math.pi / FIG8_F
    q = analytic_qutrit_resonance(t_half, FIG8_H, FIG8_Q, 0.0)
    p = populations(q[2], q[5])
    assert p[2] == pytest.approx(1.0, abs=1e-12)
    assert q[2] / np.linalg.norm(q[:3]) == pytest.approx(-1.0, abs=1e-12)   # polarization


def test_basis_calibration_against_ode():
    """The coherence-vector basis reproduces the printed exact solution along
    the density-matrix pipeline, including a nonzero drive frequency (which
    exercises all one- and two-quantum components)."""
    w = 0.3
    fp = FieldParams.circular(FIG8_H, w, w)   # resonance with omega = H = 0.3
    T = 40.0
    times, rhos, _ = evolve_density(fp, AnisotropyParams(Q=FIG8_Q),
                                    initial_density_north(), T, n_out=321)
    qs = np.array([bloch8_from_density(r) for r in rhos])
    ref = analytic_qutrit_resonance(times, FIG8_H, FIG8_Q, w)
    assert np.max(np.abs(qs - ref)) < 1e-8


def test_q_norm_conserved():
    fp = FieldParams.circular(0.45, 0.2, 0.2)
    times, rhos, _ = evolve_density(fp, AnisotropyParams(Q=0.8, d=0.15),
                                    initial_density_north(), 30.0, n_out=301)
    qs = np.array([bloch8_from_density(r) for r in rhos])
    norms = np.linalg.norm(qs, axis=1)
    assert np.max(np.abs(norms - math.sqrt(2.0))) < 1e-9


def test_closed_amplitude_qutrit():
    assert closed_trajectory_amplitude_qutrit(4, 5, 1.0) == pytest.approx(3.0 / 8.0)
    assert closed_trajectory_amplitude_qutrit(2, 2, 1.0, d=0.3) == pytest.approx(-0.3 * math.sqrt(2.0))
    with pytest.raises(ValueError):
        closed_trajectory_amplitude_qutrit(0, 5, 1.0)
    with pytest.raises(ValueError):
        closed_trajectory_amplitude_qutrit(5, 4, 1.0)


def test_closed_trajectory_closes():
    h = closed_trajectory_amplitude_qutrit(4, 5, FIG8_Q)
    fp = FieldParams.circular(h, 0.0, 0.0)
    T = 4 * math.pi * 4 / FIG8_Q
    times, rhos, _ = evolve_density(fp, AnisotropyParams(Q=FIG8_Q),
                                    initial_density_north(), T, n_out=801)
    assert np.max(np.abs(rhos[-1] - rhos[0])) < 1e-9


def test_two_photon_frequency_on_synthetic_signal():
    ts = np.linspace(0.0, 400.0, 8001)
    y = 0.5 - 0.4 * np.cos(0.125 * ts) + 0.1 * np.cos(1.1 * ts)
    w = two_photon_frequency(ts, y)
    assert w == pytest.approx(0.125, rel=5e-3)
