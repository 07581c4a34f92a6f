"""Acceptance suite: one pass/fail line per criterion, each at its stated
tolerance.  Run with `pytest -s tests/test_acceptance.py` to see the lines.

Five sub-checks of the figure regression are strict xfails: the published
values they compare against are demonstrably inconsistent with the exact
trajectories (each xfail reason gives the evidence); every attainable check
is asserted at full strength.
"""

import math
import time

import numpy as np
import pytest

from spinhodo.cli import closure_search, run_preset
from spinhodo.elliptic import jacobi_sncndn
from spinhodo.geometry import (adjoining_sphere_residual, angular_velocities,
                               count_torsion_sign_changes, curvature_rate,
                               detect_loops, frenet_geometry, resonance_geometry)
from spinhodo.integrator import integrate, resample_uniform
from spinhodo.presets import PRESETS
from spinhodo.qubit import (DampingParams, FieldParams, InitialAngles,
                            analytic_elliptic_resonance, analytic_rabi_general,
                            bloch_generators, eom_jets, field_at, make_bloch_rhs)
from spinhodo.qutrit import (AnisotropyParams, analytic_qutrit_resonance,
                             bloch8_from_density, closed_trajectory_amplitude_qutrit,
                             evolve_density, initial_density_north, populations,
                             qutrit_generators, two_photon_frequency)


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _resonance_series(ts, h, w):
    """Frenet series of the resonant closed form, its derivatives from the
    equation of motion."""
    R = analytic_rabi_general(ts, InitialAngles(0.0, 0.0), h, w, w, 0.0)
    fp = FieldParams.circular(h, w, w)
    G, b = bloch_generators(fp, DampingParams())
    return frenet_geometry(ts, R, *eom_jets(fp, G, b, ts, R))


# --------------------------------------------------------------- criterion 1

def test_criterion_1_special_function_limits():
    t0 = time.perf_counter()
    us = np.linspace(-10.0, 10.0, 4001)
    worst = 0.0
    for u in us:
        sn0, cn0, dn0 = jacobi_sncndn(u, 0.0)
        worst = max(worst, abs(sn0 - math.sin(u)), abs(cn0 - math.cos(u)),
                    abs(dn0 - 1.0))
        sn1, cn1, dn1 = jacobi_sncndn(u, 1.0)
        sech = 1.0 / math.cosh(u)
        worst = max(worst, abs(sn1 - math.tanh(u)), abs(cn1 - sech),
                    abs(dn1 - sech))
    elapsed = time.perf_counter() - t0
    _line("criterion 1 (trig/hyperbolic limits)",
          worst < 1e-10 and elapsed < 1.0,
          f"max abs error {worst:.2e} (< 1e-10), runtime {elapsed:.2f}s (< 1 s)")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_analytic_vs_numeric_qubit():
    rng = np.random.default_rng(20260809)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        h, H, w = rng.uniform(-5.0, 5.0, 3)
        g = rng.uniform(0.0, 0.5)
        init = InitialAngles(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi))
        Om = math.hypot(H - w, h)
        T = 5 * 2 * math.pi / Om
        traj = integrate(make_bloch_rhs(FieldParams.circular(h, H, w),
                                        DampingParams.uniform(g)),
                         init.bloch(), (0.0, T), n_out=200)
        ref = analytic_rabi_general(traj.times, init, h, H, w, g)
        worst = max(worst, float(np.max(np.abs(traj.states - ref))))
    elapsed = time.perf_counter() - t0
    _line("criterion 2 (closed form vs integration, 50 draws x 5 periods)",
          worst < 1e-8 and elapsed < 30.0,
          f"max deviation {worst:.2e} (< 1e-8), runtime {elapsed:.1f}s (< 30 s)")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_resonance_solution_identity():
    h, w, g = 0.5, 0.2, 0.15
    ts = np.linspace(0.0, 4 * 2 * math.pi / h, 1000)
    a = analytic_elliptic_resonance(ts, h, w, 0.0, g)
    b = analytic_rabi_general(ts, InitialAngles(0.0, 0.0), h, w, w, g)
    dev = float(np.max(np.abs(a - b)))
    _line("criterion 3 (elliptic solution at k=0 equals circular resonance)",
          dev < 1e-12, f"max pointwise deviation {dev:.2e} (< 1e-12), 1000-point grid")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_resonance_geometry():
    worst_k = worst_kap = worst_v = worst_s = 0.0
    for h, w, n in [(0.5, 0.2, 4001), (0.5, 5.0, 8001)]:
        T = 2 * math.pi / h
        ts = np.linspace(0.0, T, n)
        series = _resonance_series(ts, h, w)
        kr, tr, vr, sr = resonance_geometry(ts, h, w)
        ok = series.valid & (ts > 0.02 * T) & (ts < 0.98 * T)
        worst_k = max(worst_k, float(np.nanmax(np.abs(series.curvature[ok] - kr[ok]))))
        worst_kap = max(worst_kap, float(np.nanmax(np.abs(series.torsion[ok] - tr[ok]))))
        worst_v = max(worst_v, float(np.nanmax(np.abs(series.speed[ok] - vr[ok]))))
        worst_s = max(worst_s, abs(series.arc_length[-1] - sr[-1]) / sr[-1])
    _line("criterion 4 (resonance geometry closed forms)",
          worst_k < 1e-6 and worst_kap < 1e-6 and worst_v < 1e-6 and worst_s < 0.005,
          f"k dev {worst_k:.2e}, torsion dev {worst_kap:.2e}, speed dev {worst_v:.2e} "
          f"(< 1e-6); arc length rel dev {worst_s:.2e} (< 0.5%)")


# --------------------------------------------------------------- criterion 5

ACCEPTED_CAPTION_CHECKS = {
    "fig2": ["flip_probability", "arc_length"],
    "fig3": ["arc_length", "speed", "curvature"],
    "fig4": ["arc_length", "curvature"],
    "fig5": ["arc_length", "speed", "curvature", "torsion", "flip_probability"],
    "fig6": ["arc_length", "speed", "curvature"],
    "fig7": ["speed"],
    "fig10": [],
}


@pytest.fixture(scope="module")
def figure_reports():
    t0 = time.perf_counter()
    reports = {name: run_preset(name) for name in ACCEPTED_CAPTION_CHECKS}
    return reports, time.perf_counter() - t0


def test_criterion_5_figure_regression(figure_reports):
    reports, elapsed = figure_reports
    failures = []
    for name, quantities in ACCEPTED_CAPTION_CHECKS.items():
        checks = {c["quantity"]: c for c in reports[name]["caption_checks"]}
        for q in quantities:
            if not checks[q]["passed"]:
                failures.append(f"{name}:{q} expected {checks[q]['expected']} "
                                f"observed {checks[q]['observed']}")
    # fig10 attainable pieces: arc length at 5%, curvature peak within x2
    f10 = reports["fig10"]
    s10 = f10["observed"]["arc_length"]
    if abs(s10 - 22.13) / 22.13 > 0.05:
        failures.append(f"fig10 arc length {s10}")
    kmax10 = f10["observed"]["curvature"][1]
    if not (29.0 / 2.0 <= kmax10 <= 29.0 * 2.0):
        failures.append(f"fig10 curvature peak {kmax10}")
    ok = not failures and elapsed < 120.0
    _line("criterion 5 (figure-caption regression)",
          ok, f"{sum(len(v) for v in ACCEPTED_CAPTION_CHECKS.values()) + 2} checks, "
              f"failures: {failures or 'none'}, runtime {elapsed:.0f}s (< 120 s)")


@pytest.mark.xfail(strict=True,
                   reason="published fig7 path length 6.44 is inconsistent with the "
                          "trajectory it captions: the exact run gives s = 7.56 while "
                          "its speed/curvature/probability extrema all match")
def test_fig7_arc_length_caption(figure_reports):
    reports, _ = figure_reports
    check = {c["quantity"]: c for c in reports["fig7"]["caption_checks"]}["arc_length"]
    assert check["passed"]


@pytest.mark.xfail(strict=True,
                   reason="published fig3 lower precession rate -0.02 is inconsistent "
                          "with the trajectory it captions: the closed-form rate "
                          "h3 - (h1 p1 + h2 p2) p3/(p1^2 + p2^2) on the exact "
                          "solution never goes negative, its minimum is 0.018412 on "
                          "the preset grid and on a 100x finer one, 0.0384 from the "
                          "caption against a tolerance of 0.0345")
def test_fig3_phi_dot_caption(figure_reports):
    reports, _ = figure_reports
    check = {c["quantity"]: c for c in reports["fig3"]["caption_checks"]}["phi_dot"]
    assert check["passed"]


def _closed_form_phi_dot(name):
    """The field-form precession rate of angular_velocities on the exact
    solution, on the preset grid, and the transverse radius of each sample."""
    preset = PRESETS[name]
    fp = preset.fieldp
    t = np.linspace(0.0, preset.duration, preset.n_output)
    R = analytic_rabi_general(t, preset.init, fp.h1, fp.H, fp.omega)
    h = field_at(t, fp)
    rho2 = R[:, 0] ** 2 + R[:, 1] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):   # at the pole, rho = 0
        rate = h[:, 2] - (h[:, 0] * R[:, 0] + h[:, 1] * R[:, 1]) * R[:, 2] / rho2
    return rate, np.sqrt(rho2)


def test_fig3_phi_dot_range_is_the_closed_form(figure_reports):
    reports, _ = figure_reports
    rate, _ = _closed_form_phi_dot("fig3")
    observed = reports["fig3"]["observed"]["phi_dot"]
    assert np.allclose(observed, [rate.min(), rate.max()], rtol=0.0, atol=1e-9)
    assert rate.min() > 0.018


def test_fig4_phi_dot_maximum_is_the_closed_form(figure_reports):
    # the rate divides the state error by rho^2, and fig4's maximum sits at
    # rho = 1.2e-3: an integration error of 1e-10 there moves it by about 1e-4.
    # Samples below the pole radius of 1e-4 are flagged, not reported
    reports, _ = figure_reports
    rate, rho = _closed_form_phi_dot("fig4")
    peak = rate[rho > 1e-4].max()
    assert abs(peak - 0.2749999233) < 1e-10
    assert abs(reports["fig4"]["observed"]["phi_dot"][1] - peak) < 1e-5


@pytest.mark.xfail(strict=True,
                   reason="published fig7 torsion minimum -200 is inconsistent with "
                          "the trajectory it captions: the run gives -1036.67 at "
                          "t = 5.270, where the curvature falls to 1.0005 (the "
                          "torsion of a sphere curve grows like 1/sqrt(k^2 - 1) as its "
                          "curvature k nears 1); a 2x finer grid at rel_tol 1e-12 "
                          "gives -1036.67 and a 4x finer one -1037.60, each more than "
                          "twice the caption")
def test_fig7_torsion_caption(figure_reports):
    reports, _ = figure_reports
    check = {c["quantity"]: c for c in reports["fig7"]["caption_checks"]}["torsion"]
    assert check["passed"]


@pytest.mark.xfail(strict=True,
                   reason="published fig10 lower curvature bound 0.005 is impossible "
                          "for a unit-sphere curve (curvature >= 1 identically)")
def test_fig10_curvature_minimum_caption(figure_reports):
    reports, _ = figure_reports
    kmin = reports["fig10"]["observed"]["curvature"][0]
    assert 0.005 / 2.0 <= kmin <= 0.005 * 2.0


@pytest.mark.xfail(strict=True,
                   reason="published fig10 count of 28 torsion sign changes is "
                          "inconsistent with the exact trajectory: the run counts 35, "
                          "and so do the closed-form samples on the preset grid at "
                          "every band from 0 to 1e-6 of max |torsion|, whose only "
                          "near-zero samples are the exact zeros at t = 0 and at the "
                          "end, t = 16 pi")
def test_fig10_torsion_sign_change_caption(figure_reports):
    reports, _ = figure_reports
    assert reports["fig10"]["events"]["torsion_sign_changes"] == 28


def test_torsion_sign_changes_match_closed_form(figure_reports):
    # each run counts the flips of its closed form on the same grid, and the
    # closed-form count does not depend on the band
    reports, _ = figure_reports
    for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig10"):
        preset = PRESETS[name]
        fp = preset.fieldp
        t = np.linspace(0.0, preset.duration, preset.n_output)
        if preset.system == "qubit":
            y = analytic_rabi_general(t, preset.init, fp.h1, fp.H, fp.omega)
            G, b = bloch_generators(fp, preset.damping)
        else:
            y = analytic_qutrit_resonance(t, fp.h1, preset.aniso.Q, fp.omega)
            G, b = qutrit_generators(fp, preset.aniso)
        series = frenet_geometry(t, y[:, :3], *eom_jets(fp, G, b, t, y))
        torsion = series.torsion[series.valid]
        exact = count_torsion_sign_changes(torsion)
        assert exact == count_torsion_sign_changes(torsion, rel_band=0.0), name
        assert reports[name]["events"]["torsion_sign_changes"] == exact, name


def test_loop_count_matches_closed_form(figure_reports):
    # a crossing counts once however the samples fall around it: fig6's
    # closed form crosses itself at chord vertices, where the raw piercings
    # read 40 against the integrated run's 10.  fig7 has no closed form.
    reports, _ = figure_reports
    for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10"):
        preset = PRESETS[name]
        fp = preset.fieldp
        t = np.linspace(0.0, preset.duration, preset.n_output)
        if preset.system == "qubit":
            y = analytic_rabi_general(t, preset.init, fp.h1, fp.H, fp.omega)
        else:
            y = analytic_qutrit_resonance(t, fp.h1, preset.aniso.Q, fp.omega)
        p = y[:, :3] / np.linalg.norm(y[:, :3], axis=1)[:, None]
        report = reports[name] if name in reports else run_preset(name)
        assert report["events"]["loop_count"] == len(detect_loops(t, p)), name


# --------------------------------------------------------------- criterion 6

def test_criterion_6_constant_resonance_rates():
    h, w = 0.5, 0.2
    fp = FieldParams.circular(h, w, w)
    T = 2 * math.pi / h
    ts = np.linspace(0.0, T, 4001)
    R = analytic_rabi_general(ts, InitialAngles(0.0, 0.0), h, w, w, 0.0)
    phi_worst = theta_worst = 0.0
    signs = []
    for i, t in enumerate(ts):
        td, pd = angular_velocities(R[i], field_at(t, fp))
        if math.isnan(td):
            signs.append(0.0)
            continue
        phi_worst = max(phi_worst, abs(pd - w))
        theta_worst = max(theta_worst, abs(abs(td) - h))
        signs.append(math.copysign(1.0, td))
    # nutation-rate flips must bracket t = n pi / h
    signs = np.array(signs)
    live = signs != 0.0
    idx = np.flatnonzero(live)
    flips = [idx[j + 1] for j in range(len(idx) - 1)
             if signs[idx[j]] * signs[idx[j + 1]] < 0]
    dt = ts[1] - ts[0]
    flip_ok = all(min(abs(ts[i] - n * math.pi / h) for n in range(0, 3)) < 5 * dt
                  for i in flips)
    _line("criterion 6 (constant precession and nutation rates at resonance)",
          phi_worst < 1e-8 and theta_worst < 1e-8 and flip_ok and len(flips) >= 1,
          f"|precession - drive| {phi_worst:.2e}, ||nutation| - amplitude| "
          f"{theta_worst:.2e} (< 1e-8), {len(flips)} sign flip(s) at multiples of pi/h")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_osculating_sphere_identity():
    h, w = 0.5, 0.2
    T = 2 * math.pi / h

    def residuals(n):
        series = _resonance_series(np.linspace(0.0, T, n), h, w)
        return adjoining_sphere_residual(series.curvature, curvature_rate(series),
                                         series.speed, series.torsion)

    res = residuals(2001)   # the fig5 preset grid density
    frac = float(np.mean(np.abs(res[np.isfinite(res)]) < 1e-4))
    med_coarse = float(np.nanmedian(np.abs(residuals(201))))
    med_fine = float(np.nanmedian(np.abs(residuals(401))))
    ratio = med_coarse / med_fine
    _line("criterion 7 (osculating-sphere identity)",
          frac >= 0.95 and ratio > 8.0,
          f"{100 * frac:.1f}% of samples below 1e-4 (>= 95%); refinement ratio "
          f"{ratio:.1f} (> 8, finite-difference order)")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_qutrit_oracle():
    h, Q = 3.0 / 8.0, 1.0
    f = math.hypot(2 * h, Q)
    T = 10 * 2 * math.pi / f
    fp = FieldParams.circular(h, 0.0, 0.0)
    times, rhos, _ = evolve_density(fp, AnisotropyParams(Q=Q),
                                    initial_density_north(), T, n_out=2001)
    qs = np.array([bloch8_from_density(r) for r in rhos])
    ref = analytic_qutrit_resonance(times, h, Q, 0.0)
    dev = float(np.max(np.abs(qs - ref)))
    i_half = len(times) // 2
    p_half = populations(qs[i_half, 2], qs[i_half, 5])[2]
    ret = float(np.max(np.abs(qs[-1] - qs[0])))
    _line("criterion 8 (qutrit resonance oracle)",
          dev < 1e-8 and abs(p_half - 1.0) < 1e-8 and ret < 1e-6,
          f"pipeline vs closed form {dev:.2e} (< 1e-8); lowest-level population at "
          f"half period off unity by {abs(p_half - 1.0):.2e} (< 1e-8); full-period "
          f"return {ret:.2e} (< 1e-6)")


# --------------------------------------------------------------- criterion 9

def test_criterion_9_closure_conditions():
    qutrit_rows = [r for r in closure_search("qutrit", 6, 6, Q=1.0,
                                             points_per_period=150)
                   if r["feasible"]]
    worst_qutrit = max(r["residual"] for r in qutrit_rows)
    qubit_rows = [r for r in closure_search("qubit", 4, 4, omega=0.3, H=0.45,
                                            points_per_period=150)
                  if r["feasible"]][:10]
    worst_qubit = max(r["residual"] for r in qubit_rows)
    _line("criterion 9 (closed-trajectory conditions)",
          worst_qutrit < 1e-5 and len(qubit_rows) >= 10 and worst_qubit < 1e-6,
          f"{len(qutrit_rows)} qutrit pairs close to {worst_qutrit:.2e} (< 1e-5); "
          f"{len(qubit_rows)} qubit pairs close to {worst_qubit:.2e} (< 1e-6)")


# -------------------------------------------------------------- criterion 10

def test_criterion_10_two_quantum_anisotropy():
    Q = 1.0
    T = 80 * math.pi
    fp0 = FieldParams.circular(3.0 / 8.0, 0.0, 0.0)
    t0, r0, _ = evolve_density(fp0, AnisotropyParams(Q=Q), initial_density_north(),
                               T, n_out=4001)
    h1 = closed_trajectory_amplitude_qutrit(4, 5, Q, d=0.1)
    fp1 = FieldParams.circular(h1, 0.0, 0.0)
    t1, r1, _ = evolve_density(fp1, AnisotropyParams(Q=Q, d=0.1),
                               initial_density_north(), T, n_out=4001)
    w0 = two_photon_frequency(t0, np.real(r0[:, 2, 2]))
    w1 = two_photon_frequency(t1, np.real(r1[:, 2, 2]))
    ratio = w1 / w0
    _line("criterion 10 (transverse anisotropy doubles the two-quantum rate)",
          1.7 <= ratio <= 2.3,
          f"transition-frequency ratio {ratio:.3f} (within [1.7, 2.3])")


# -------------------------------------------------------------- criterion 11

def test_criterion_11_invariant_suite():
    # undamped coherence length
    fp = FieldParams.elliptic(0.5, 0.3, 0.7, 0.6)
    traj = resample_uniform(make_bloch_rhs(fp, DampingParams()), 1001,
                            y0=InitialAngles(1.1, 0.3).bloch(), t_span=(0.0, 40.0))
    bloch_drift = float(np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)))

    # qutrit trace and purity
    fq = FieldParams.circular(0.45, 0.2, 0.2)
    times, rhos, _ = evolve_density(fq, AnisotropyParams(Q=0.8, d=0.15),
                                    initial_density_north(), 30.0, n_out=301)
    trace_drift = float(np.max(np.abs(np.real(np.einsum("nii->n", rhos)) - 1.0)))
    purity_drift = float(np.max(np.abs(np.real(np.einsum("nij,nji->n", rhos, rhos)) - 1.0)))

    # population normalization is an algebraic identity
    qs = np.array([bloch8_from_density(r) for r in rhos])
    pop_dev = float(np.max(np.abs(populations(qs[:, 2], qs[:, 5]).sum(axis=0) - 1.0)))

    # rigid rotations leave the Frenet quantities alone
    rng = np.random.default_rng(5)
    Qrot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(Qrot) < 0:
        Qrot[:, 0] *= -1.0
    ts = np.linspace(0.0, 2 * math.pi / 0.5, 301)
    fp5 = FieldParams.circular(0.5, 0.2, 0.2)
    R = analytic_rabi_general(ts, InitialAngles(0.0, 0.0), 0.5, 0.2, 0.2, 0.0)
    jets = (R, *eom_jets(fp5, *bloch_generators(fp5, DampingParams()), ts, R))
    a, b = frenet_geometry(ts, *jets), frenet_geometry(ts, *(d @ Qrot.T for d in jets))
    rot_dev = max(float(np.nanmax(np.abs(a.curvature - b.curvature))),
                  float(np.nanmax(np.abs(a.torsion - b.torsion))),
                  float(abs(a.arc_length[-1] - b.arc_length[-1])))

    _line("criterion 11 (invariant suite)",
          bloch_drift < 1e-9 and trace_drift < 1e-9 and purity_drift < 1e-9
          and pop_dev < 1e-12 and rot_dev < 1e-9,
          f"coherence-length drift {bloch_drift:.2e}, trace drift {trace_drift:.2e}, "
          f"purity drift {purity_drift:.2e} (< 1e-9); population sum off by "
          f"{pop_dev:.2e} (< 1e-12); rotation-invariance deviation {rot_dev:.2e} (< 1e-9)")
