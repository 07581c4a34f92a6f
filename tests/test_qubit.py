"""Qubit model tests: field shapes, equation of motion, exact solutions."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.special import ellipj

from spinhodo import qubit as qubit_module
from spinhodo.integrator import IntegratorConfig, integrate, resample_uniform
from spinhodo.presets import PRESETS
from spinhodo.qubit import (DampingParams, FieldMode, FieldParams, InitialAngles,
                            analytic_elliptic_resonance, analytic_rabi_general,
                            closed_trajectory_amplitude_qubit, field_at,
                            make_bloch_rhs, qubit_energy)
from spinhodo.qutrit import AnisotropyParams, make_qutrit_rhs_real

from oracles import bloch_rhs

ACOS13 = math.acos(1.0 / math.sqrt(3.0))


# ------------------------------------------------------------------ fields

def test_field_circular_at_zero():
    fp = FieldParams.circular(0.5, 0.2, 0.2)
    assert np.allclose(field_at(0.0, fp), [0.5, 0.0, 0.2])


def test_field_circular_is_rotating():
    fp = FieldParams.circular(0.7, 0.3, 1.1)
    for t in (0.4, 2.9):
        expect = [0.7 * math.cos(1.1 * t), 0.7 * math.sin(1.1 * t), 0.3]
        assert np.allclose(field_at(t, fp), expect, atol=1e-15)
        assert np.linalg.norm(field_at(t, fp)[:2]) == pytest.approx(0.7)


def test_field_impulse_limit():
    fp = FieldParams.elliptic(0.4, 0.2, 0.9, 1.0)
    for t in (0.0, 1.7):
        w = 0.9 * t
        expect = [0.4 / math.cosh(w), 0.4 * math.tanh(w), 0.2 / math.cosh(w)]
        assert np.allclose(field_at(t, fp), expect, atol=1e-14)


def test_field_mode_invariants():
    with pytest.raises(ValueError):
        FieldParams(0.5, 0.4, 0.1, 1.0, 0.0, FieldMode.CIRCULAR)   # h1 != h2
    with pytest.raises(ValueError):
        FieldParams(0.5, 0.1, 0.1, 1.0, 0.0, FieldMode.LINEAR)     # h2 != 0
    with pytest.raises(ValueError):
        FieldParams(0.5, 0.5, 0.1, 1.0, 0.3, FieldMode.CIRCULAR)   # k != 0
    with pytest.raises(ValueError):
        FieldParams(0.5, 0.4, 0.1, 1.0, 0.3, FieldMode.ELLIPTIC)   # h1 != h2


@pytest.mark.parametrize("fp", [
    FieldParams.circular(0.7, 0.3, 1.1),
    FieldParams.linear(-0.4, 0.2, 0.8),
    FieldParams.elliptic(0.5, 0.3, 0.7, 0.6),
    FieldParams.elliptic(0.5, 0.3, 0.7, 1.0),
], ids=["circular", "linear", "k0.6", "k1"])
def test_field_array_matches_scalar_calls(fp):
    ts = np.linspace(-3.0, 40.0, 257)
    stacked = np.array([field_at(t, fp) for t in ts])
    assert field_at(ts, fp).shape == (len(ts), 3)
    assert np.allclose(field_at(ts, fp), stacked, rtol=1e-15, atol=0.0)
    assert field_at(0.4, fp).shape == (3,)


def test_field_at_memory_is_bounded():
    # one call over fig3's 24,001 samples: the (n, 3) result and sn, cn, dn,
    # about 1.2 MB, with no per-sample Python objects
    preset = PRESETS["fig3"]
    ts = np.linspace(0.0, preset.duration, preset.n_output)
    tracemalloc.start()
    try:
        field_at(ts, preset.fieldp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("k", [0.3, 0.6, 0.97])
def test_drive_arrays_match_scipy(k):
    # u = omega t spans more than one real period 4K(k) for each modulus
    w = 0.7
    ts = np.linspace(-3.0, 20.0, 257)
    sn, cn, dn, _ = ellipj(w * ts, k * k)
    fields = field_at(ts, FieldParams.elliptic(1.0, 1.0, w, k))
    assert np.max(np.abs(fields - np.stack([cn, sn, dn], axis=-1))) < 1e-14
    R = analytic_elliptic_resonance(ts, 0.4, w, k, gamma=0.05)
    sh = np.sin(0.4 * ts)
    ref = np.stack([sn * sh, -cn * sh, np.cos(0.4 * ts)], axis=-1) * np.exp(-0.05 * ts)[:, None]
    assert np.max(np.abs(R - ref)) < 1e-14


@pytest.mark.parametrize("name, make", [
    ("h1", lambda v: FieldParams.circular(v, 0.2, 1.0)),
    ("h2", lambda v: FieldParams(0.5, v, 0.2, 1.0, 0.3, FieldMode.ELLIPTIC)),
    ("H", lambda v: FieldParams.circular(0.5, v, 1.0)),
    ("H", lambda v: FieldParams.elliptic(0.5, v, 1.0, 0.6)),
    ("omega", lambda v: FieldParams.linear(0.5, 0.2, v)),
], ids=["h1-circular", "h2-elliptic", "H-circular", "H-elliptic", "omega-linear"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_field_params_reject_non_finite_by_name(name, make, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        make(value)


def test_damping_validation():
    with pytest.raises(ValueError):
        DampingParams(-0.1, 0.0, 0.0)
    assert DampingParams.uniform(0.2).is_uniform


def test_initial_angles():
    init = InitialAngles(0.3, 1.1)
    R = init.bloch()
    assert np.linalg.norm(R) == pytest.approx(1.0)
    assert R[2] == pytest.approx(math.cos(0.3))
    with pytest.raises(ValueError):
        InitialAngles(-0.1, 0.0)


@pytest.mark.parametrize("name, make", [
    ("gamma1", lambda v: DampingParams(v, 0.1)),
    ("gamma2", lambda v: DampingParams(0.1, v)),
    ("r_eq", lambda v: DampingParams(0.1, 0.1, v)),
    ("phi0", lambda v: InitialAngles(0.3, v)),
], ids=["gamma1", "gamma2", "r_eq", "phi0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_damping_and_angles_reject_non_finite_by_name(name, make, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        make(value)


# --------------------------------------------------------------- equation

def test_rhs_pure_z_precession():
    fp = FieldParams.circular(0.0, 0.8, 1.0)
    dp = DampingParams()
    out = bloch_rhs(0.0, np.array([1.0, 0.0, 0.0]), fp, dp)
    assert np.allclose(out, [0.0, 0.8, 0.0])


def test_rhs_transverse_field():
    fp = FieldParams.linear(0.5, 0.0, 1.0)   # field (0.5, 0, 0) at t=0
    out = bloch_rhs(0.0, np.array([0.0, 0.0, 1.0]), fp, DampingParams())
    assert np.allclose(out, [0.0, -0.5, 0.0])


def test_rhs_pure_decay():
    fp = FieldParams.circular(0.0, 0.0, 1.0)
    dp = DampingParams(0.3, 0.3, 0.0)
    R = np.array([0.2, -0.4, 0.7])
    assert np.allclose(bloch_rhs(0.0, R, fp, dp), -0.3 * R)


def test_make_bloch_rhs_matches_bloch_rhs():
    dp = DampingParams(0.1, 0.25, 0.4)
    R = np.array([0.1, 0.5, -0.3])
    for fp in (FieldParams.circular(0.7, 0.3, 1.1), FieldParams.linear(-0.4, 0.2, 0.8),
               FieldParams.elliptic(0.4, 0.3, 0.7, 0.6), FieldParams.elliptic(0.4, 0.3, 0.7, 1.0)):
        rhs = make_bloch_rhs(fp, dp)
        for t in (0.0, 1.3, 4.1):
            assert np.allclose(rhs(t, R), bloch_rhs(t, R, fp, dp), atol=1e-15)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(["circular", "linear", "elliptic"]), h=_finite(-2, 2),
       H=_finite(-2, 2), omega=_finite(-2, 2),
       k=st.one_of(st.just(0.0), _finite(0.01, 0.99), st.just(1.0)),
       gamma1=_finite(0, 1), gamma2=_finite(0, 1), r_eq=_finite(-1, 1), t=_finite(-100, 100),
       R=st.lists(_finite(-2, 2), min_size=3, max_size=3))
def test_make_bloch_rhs_matches_bloch_rhs_over_random_inputs(mode, h, H, omega, k, gamma1,
                                                             gamma2, r_eq, t, R):
    if mode == "elliptic":
        fp = FieldParams.elliptic(h, H, omega, k)
    else:
        fp = getattr(FieldParams, mode)(h, H, omega)
    dp = DampingParams(gamma1, gamma2, r_eq)
    R = np.array(R)
    ref = bloch_rhs(t, R, fp, dp)
    scale = (np.max(np.abs(field_at(t, fp))) + gamma1 + gamma2) * (np.max(np.abs(R)) + abs(r_eq))
    assert np.max(np.abs(make_bloch_rhs(fp, dp)(t, R) - ref)) <= 1e-15 * scale


def _unevaluated_drive(k):
    def drive(u):
        raise AssertionError("the drive was evaluated")
    return drive


STATIC_DRIVES = [FieldParams.circular(0.7, 0.3, 0.0), FieldParams.linear(-0.4, 0.2, 0.0),
                 FieldParams.elliptic(0.4, -0.3, 0.0, 0.6),
                 FieldParams.elliptic(-0.4, 0.3, 0.0, 1.0)]


@pytest.mark.parametrize("fp", STATIC_DRIVES, ids=["circular", "linear", "k0.6", "k1"])
def test_static_drive_rhs_matches_bloch_rhs_without_evaluating_the_drive(fp, monkeypatch):
    # at omega = 0 the drive is its value at argument 0, (sn, cn, dn) = (0, 1, 1)
    dp = DampingParams(0.1, 0.25, 0.4)
    with monkeypatch.context() as m:
        m.setattr(qubit_module, "sncndn_of", _unevaluated_drive)
        rhs = make_bloch_rhs(fp, dp)
    rng = np.random.default_rng(3)
    for t in (0.0, 1.3, 4.1, 1e6):
        R = rng.uniform(-1.0, 1.0, 3)
        assert np.max(np.abs(rhs(t, R) - bloch_rhs(t, R, fp, dp))) <= 1e-15


@pytest.mark.parametrize("make_rhs, y", [
    (lambda fp: make_bloch_rhs(fp, DampingParams()), np.array([0.0, 0.0, 1.0])),
    (lambda fp: make_qutrit_rhs_real(fp, AnisotropyParams(1.0, 0.2)), np.ones(8)),
], ids=["qubit", "qutrit"])
@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_rhs_rejects_non_finite_time(make_rhs, y, t):
    rhs = make_rhs(FieldParams.elliptic(0.5, 0.3, 0.7, 0.6))
    with pytest.raises(ValueError, match="^argument must be finite"):
        rhs(t, y)


# ------------------------------------------------------------ exact forms

def test_rabi_general_initial_condition():
    for th0, ph0 in [(0.0, 0.0), (0.7, 1.2), (math.pi, 2.0), (ACOS13, math.pi / 4)]:
        init = InitialAngles(th0, ph0)
        R0 = analytic_rabi_general(0.0, init, -0.6, 0.45, 3.0, 0.2)
        assert np.allclose(R0, init.bloch(), atol=1e-15)


def test_rabi_general_reduces_to_north_pole_form():
    # north-pole start must match the compact published triple
    h, H, w, g = 0.6, 0.5, 3.0, 0.15
    d = H - w
    Om = math.hypot(d, h)
    ts = np.linspace(0.0, 12.0, 400)
    R = analytic_rabi_general(ts, InitialAngles(0.0, 0.0), h, H, w, g)
    ex = np.exp(-g * ts)
    R1 = ex * h / Om**2 * (Om * np.sin(Om * ts) * np.sin(w * ts)
                           + d * (1 - np.cos(Om * ts)) * np.cos(w * ts))
    R2 = ex * h / Om**2 * (d * (1 - np.cos(Om * ts)) * np.sin(w * ts)
                           - Om * np.sin(Om * ts) * np.cos(w * ts))
    R3 = ex / Om**2 * (d * d + h * h * np.cos(Om * ts))
    assert np.max(np.abs(R - np.stack([R1, R2, R3], axis=1))) < 1e-14


def test_rabi_resonant_population():
    # at resonance the north-pole R3 is exactly e^{-gt} cos(ht)
    h, w, g = 0.5, 0.2, 0.1
    ts = np.linspace(0.0, 30.0, 301)
    R = analytic_rabi_general(ts, InitialAngles(0.0, 0.0), h, w, w, g)
    assert np.max(np.abs(R[:, 2] - np.exp(-g * ts) * np.cos(h * ts))) < 1e-14


def test_rabi_general_vs_ode_randomized():
    rng = np.random.default_rng(7)
    cfg = IntegratorConfig()
    for _ in range(8):
        h, H, w = rng.uniform(-5, 5, 3)
        g = rng.uniform(0.0, 0.5)
        th0, ph0 = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        Om = math.hypot(H - w, h)
        if Om < 0.1:
            continue
        T = 5 * 2 * math.pi / Om
        init = InitialAngles(th0, ph0)
        fp = FieldParams.circular(h, H, w)
        traj = integrate(make_bloch_rhs(fp, DampingParams.uniform(g)),
                         init.bloch(), (0.0, T), cfg=cfg, n_out=200)
        ref = analytic_rabi_general(traj.times, init, h, H, w, g)
        assert np.max(np.abs(traj.states - ref)) < 1e-8


def test_rabi_general_degenerate_frequency():
    # h = 0 and zero detuning: plain precession about z at the drive rate
    w, g = 1.3, 0.05
    init = InitialAngles(1.0, 0.4)
    ts = np.linspace(0.0, 9.0, 91)
    R = analytic_rabi_general(ts, init, 0.0, w, w, g)
    st = math.sin(1.0)
    expect = np.stack([st * np.cos(w * ts + 0.4), st * np.sin(w * ts + 0.4),
                       np.full_like(ts, math.cos(1.0))], axis=1)
    expect *= np.exp(-g * ts)[:, None]
    assert np.max(np.abs(R - expect)) < 1e-13


def test_elliptic_resonance_basics():
    assert np.allclose(analytic_elliptic_resonance(0.0, 0.5, 0.2, 0.6), [0, 0, 1])
    ts = np.linspace(0.0, 40.0, 300)
    R = analytic_elliptic_resonance(ts, 0.5, 0.2, 0.6, gamma=0.0)
    assert np.max(np.abs(np.linalg.norm(R, axis=1) - 1.0)) < 1e-12


def test_elliptic_resonance_k0_equals_circular_resonance():
    h, w, g = 0.5, 0.2, 0.07
    ts = np.linspace(0.0, 50.0, 1000)
    a = analytic_elliptic_resonance(ts, h, w, 0.0, g)
    b = analytic_rabi_general(ts, InitialAngles(0.0, 0.0), h, w, w, g)
    assert np.max(np.abs(a - b)) < 1e-12


def test_elliptic_resonance_vs_ode():
    h, w, k = 0.5, 0.3, 0.8
    fp = FieldParams.elliptic(h, w, w, k)   # H = omega: consistent resonance
    T = 4 * 2 * math.pi / h
    traj = resample_uniform(make_bloch_rhs(fp, DampingParams()), 801,
                            y0=np.array([0.0, 0.0, 1.0]), t_span=(0.0, T))
    ref = analytic_elliptic_resonance(traj.times, h, w, k)
    assert np.max(np.abs(traj.states - ref)) < 1e-9


def test_damped_length_and_direction():
    # uniform damping scales the vector by e^{-gt}; the direction is g-free
    h, H, w, g = -0.6, 0.45, 3.0, 0.3
    init = InitialAngles(ACOS13, 0.8)
    ts = np.linspace(0.0, 10.0, 200)
    R = analytic_rabi_general(ts, init, h, H, w, g)
    R0 = analytic_rabi_general(ts, init, h, H, w, 0.0)
    length, length0 = np.linalg.norm(R, axis=1), np.linalg.norm(R0, axis=1)
    assert np.max(np.abs(length - np.exp(-g * ts))) < 1e-12
    p, p0 = R / length[:, None], R0 / length0[:, None]
    assert np.max(np.abs(p - p0)) < 1e-12


def test_resonant_flip_reaches_unity():
    h, w = 0.5, 0.2
    ts = np.linspace(0.0, 2 * math.pi / h, 2001)
    R = analytic_rabi_general(ts, InitialAngles(0.0, 0.0), h, w, w, 0.0)
    P = (1.0 - R[:, 2]) / 2.0       # spin-flip probability
    assert P.max() == pytest.approx(1.0, abs=1e-9)
    assert P.min() == pytest.approx(0.0, abs=1e-12)


def test_large_detuning_flip_bound():
    # peak flip probability h^2/Omega^2, vanishing for strong detuning
    h, H, w = 0.2, 6.0, 1.0
    Om2 = (H - w) ** 2 + h * h
    ts = np.linspace(0.0, 400.0, 40001)
    R = analytic_rabi_general(ts, InitialAngles(0.0, 0.0), h, H, w, 0.0)
    P = (1.0 - R[:, 2]) / 2.0
    assert P.max() < h * h / Om2 + 1e-12


def test_zero_longitudinal_peak_probability():
    # with H = 0 the peak is h^2/(h^2+w^2); it equals 1/2 only when h = w
    h = w = 0.7
    ts = np.linspace(0.0, 3 * 2 * math.pi / math.hypot(w, h), 5001)
    R = analytic_rabi_general(ts, InitialAngles(0.0, 0.0), h, 0.0, w, 0.0)
    assert ((1.0 - R[:, 2]) / 2.0).max() == pytest.approx(0.5, abs=1e-6)


def test_qubit_energy():
    assert qubit_energy([0.0, 0.0, 1.0], [0.0, 0.0, 0.8]) == pytest.approx(0.4)
    assert qubit_energy([0.3, 0.1, -0.2], [0.0, 0.0, 0.0]) == 0.0


def test_bloch_length_conservation_through_ode():
    fp = FieldParams.elliptic(0.5, 0.3, 0.7, 0.6)
    traj = resample_uniform(make_bloch_rhs(fp, DampingParams()), 1001,
                            y0=InitialAngles(1.1, 0.3).bloch(), t_span=(0.0, 40.0))
    drift = np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0))
    assert drift < 1e-9


def test_bloch_rhs_against_scipy():
    # independent integrator route for the full three-rate damping model
    fp = FieldParams.elliptic(0.4, 0.25, 0.9, 0.5)
    dp = DampingParams(0.12, 0.31, 0.6)
    rhs = make_bloch_rhs(fp, dp)
    y0 = InitialAngles(0.9, 0.2).bloch()
    T = 25.0
    mine = resample_uniform(rhs, 501, y0=y0, t_span=(0.0, T))
    ref = solve_ivp(rhs, (0.0, T), y0, t_eval=mine.times, rtol=1e-11, atol=1e-13,
                    method="DOP853")
    assert np.max(np.abs(mine.states - ref.y.T)) < 1e-8


def test_closed_amplitude_qubit():
    assert closed_trajectory_amplitude_qubit(1, 1, 0.2, 0.2) == pytest.approx(0.2)
    assert closed_trajectory_amplitude_qubit(3, 1, 2.0, 10.0) is None
    with pytest.raises(ValueError):
        closed_trajectory_amplitude_qubit(0, 1, 1.0, 1.0)


def test_closed_amplitude_closure_measured():
    w = H = 0.2
    h = closed_trajectory_amplitude_qubit(1, 1, w, H)
    fp = FieldParams.circular(h, H, w)
    T = 2 * math.pi / h
    traj = resample_uniform(make_bloch_rhs(fp, DampingParams()), 601,
                            y0=np.array([0.0, 0.0, 1.0]), t_span=(0.0, T))
    assert np.linalg.norm(traj.states[-1] - traj.states[0]) < 1e-6
