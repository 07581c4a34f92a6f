"""Geometry tests: stencils, angles, angular velocities, Frenet quantities,
resonance closed forms, osculating-sphere identity, event detectors.

The Frenet layer takes a vector and its first three time derivatives; the
closed-form trajectories here get theirs exactly, from the equation of
motion (`with_jets`)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinhodo import cli, geometry
from spinhodo.geometry import (_POLE_RHO, LoopEvent, _unwrap_skipping,
                               adjoining_sphere_residual,
                               angular_velocities, count_torsion_sign_changes,
                               curvature_rate, detect_cusps, detect_loops,
                               fd_derivative, fornberg_weights, frenet_geometry,
                               resonance_geometry)
from spinhodo.presets import PRESETS
from spinhodo.qubit import (DampingParams, FieldParams, InitialAngles,
                            analytic_rabi_general, bloch_generators, eom_jets,
                            field_at)

ACOS13 = math.acos(1.0 / math.sqrt(3.0))


def rabi_unit_trajectory(theta0, phi0, h, H, w, n_periods, n):
    Om = math.hypot(H - w, h)
    T = n_periods * 2 * math.pi / Om
    ts = np.linspace(0.0, T, n)
    R = analytic_rabi_general(ts, InitialAngles(theta0, phi0), h, H, w, 0.0)
    return ts, R / np.linalg.norm(R, axis=1)[:, None]


def resonance_trajectory(h, w, n, n_periods=1.0):
    T = n_periods * 2 * math.pi / h
    ts = np.linspace(0.0, T, n)
    R = analytic_rabi_general(ts, InitialAngles(0.0, 0.0), h, w, w, 0.0)
    return ts, R


def with_jets(ts, R, h, H, w):
    """Undamped circular-drive samples R with their first three derivatives."""
    fp = FieldParams.circular(h, H, w)
    return (R, *eom_jets(fp, *bloch_generators(fp, DampingParams()), ts, R))


# ----------------------------------------------------------------- stencils

def test_fornberg_centered_first_derivative():
    w = fornberg_weights(0.0, np.arange(-3, 4), 1)[1]
    expect = np.array([-1, 9, -45, 0, 45, -9, 1]) / 60.0
    assert np.allclose(w, expect, atol=1e-13)


def test_fornberg_centered_second_derivative():
    w = fornberg_weights(0.0, np.arange(-3, 4), 2)[2]
    expect = np.array([2, -27, 270, -490, 270, -27, 2]) / 180.0
    assert np.allclose(w, expect, atol=1e-12)


def test_fd_derivative_orders():
    ts = np.linspace(0.0, 2.0, 401)
    f = np.sin(3.0 * ts)
    dt = ts[1] - ts[0]
    d1 = fd_derivative(f, dt, 1)
    d2 = fd_derivative(f, dt, 2)
    d3 = fd_derivative(f, dt, 3)
    assert np.max(np.abs(d1 - 3 * np.cos(3 * ts))) < 1e-9
    assert np.max(np.abs(d2 + 9 * np.sin(3 * ts))) < 1e-6
    assert np.max(np.abs(d3 + 27 * np.cos(3 * ts))) < 1e-4


def test_fd_derivative_edge_rows_same_order():
    # edges use shifted 7-point windows; error there stays comparable
    ts = np.linspace(0.0, 1.0, 201)
    f = np.exp(ts)
    dt = ts[1] - ts[0]
    d3 = fd_derivative(f, dt, 3)
    assert abs(d3[0] - 1.0) < 1e-6
    assert abs(d3[-1] - math.e) < 1e-5


# ------------------------------------------------------------------- angles

def test_phi_unwrap_is_continuous():
    ts, p = rabi_unit_trajectory(ACOS13, 0.0, -0.6, 0.45, 3.0, 3, 3001)
    series = frenet_geometry(ts, *with_jets(ts, p, -0.6, 0.45, 3.0))
    dphi = np.diff(series.phi[~series.pole])
    assert np.nanmax(np.abs(dphi)) < 0.5   # no 2 pi jumps survive unwrapping


def _unwrap_skipping_loop(phi_raw, defined):
    """Reference for geometry._unwrap_skipping: one defined sample at a
    time, each step taken from the unwrapped previous value."""
    phi = np.full_like(phi_raw, np.nan)
    prev = None
    for i in np.flatnonzero(defined):
        if prev is None:
            phi[i] = phi_raw[i]
        else:
            d = (phi_raw[i] - phi[prev] + math.pi) % (2.0 * math.pi) - math.pi
            if d == -math.pi:
                d = math.pi
            phi[i] = phi[prev] + d
        prev = i
    return phi


def _assert_unwrap_matches_loop(phi_raw, defined):
    phi, ref = _unwrap_skipping(phi_raw, defined), _unwrap_skipping_loop(phi_raw, defined)
    assert np.array_equal(np.isnan(phi), ~defined)
    assert np.array_equal(np.isnan(ref), ~defined)
    assert np.max(np.abs(phi[defined] - ref[defined]), initial=0.0) <= 1e-12


@pytest.mark.parametrize("name", sorted(PRESETS, key=lambda s: int(s[3:])))
def test_unwrap_matches_loop_on_presets(name):
    pr = PRESETS[name]
    cfg = cli.default_config()
    if pr.system == "qubit":
        sim = cli._simulate_qubit(pr.fieldp, pr.damping, pr.init, pr.duration, cfg,
                                  pr.n_output)
    else:
        sim = cli._simulate_qutrit(pr.fieldp, pr.aniso, pr.duration, cfg, pr.n_output)
    p = sim["p"]
    defined = p[:, 0] ** 2 + p[:, 1] ** 2 > _POLE_RHO ** 2   # as frenet_geometry flags poles
    _assert_unwrap_matches_loop(np.where(defined, np.arctan2(p[:, 1], p[:, 0]), np.nan),
                                defined)


def test_unwrap_matches_loop_across_pole_gaps():
    rng = np.random.default_rng(17)
    n = 5000
    phi_raw = np.angle(np.exp(1j * np.cumsum(rng.normal(scale=1.5, size=n))))
    defined = np.ones(n, dtype=bool)
    for start in rng.integers(0, n - 40, size=25):   # gaps of 1 to 39 samples
        defined[start:start + rng.integers(1, 40)] = False
    defined[:3] = False                               # leading and trailing gaps
    defined[-2:] = False
    _assert_unwrap_matches_loop(np.where(defined, phi_raw, np.nan), defined)
    none = np.zeros(n, dtype=bool)
    assert np.all(np.isnan(_unwrap_skipping(np.full(n, np.nan), none)))
    one = none.copy()
    one[7] = True
    assert _unwrap_skipping(np.where(one, 0.25, np.nan), one)[7] == 0.25


def test_unwrap_tie_steps_forward():
    # steps of exactly -pi (and +pi) wrap to +pi, so the azimuth climbs
    phi_raw = np.array([0.0, math.pi, 0.0, -math.pi, 0.0, 0.5, 0.5 - math.pi])
    defined = np.ones(len(phi_raw), dtype=bool)
    _assert_unwrap_matches_loop(phi_raw, defined)
    phi = _unwrap_skipping(phi_raw, defined)
    assert np.all(np.diff(phi) >= 0.0)
    assert phi[4] == 4.0 * math.pi


def test_angular_velocities_match_published_closed_forms():
    # circular field, north-pole start: nutation/precession rates in closed form
    h, H, w = 0.6, 0.5, 3.0
    d = H - w
    Om = math.hypot(d, h)
    fp = FieldParams.circular(h, H, w)
    ts = np.linspace(0.05, 10.0, 997)
    R = analytic_rabi_general(ts, InitialAngles(0.0, 0.0), h, H, w, 0.0)
    for i, t in enumerate(ts):
        td, pd = angular_velocities(R[i], field_at(t, fp))
        if math.isnan(td):
            continue
        num = Om**4 - (d * d + h * h * math.cos(Om * t)) ** 2
        if num < 1e-3 * Om**4:
            continue  # nutation-rate extremum: the square root is ill-conditioned
        td_ref = h * h * Om * math.sin(Om * t) / math.sqrt(num)
        pd_ref = ((w * d * d + Om * Om * d + w * Om * Om
                   - w * (d * d - Om * Om) * math.cos(Om * t))
                  / (d * d + Om * Om + (Om * Om - d * d) * math.cos(Om * t)))
        assert td == pytest.approx(td_ref, abs=1e-10)
        assert pd == pytest.approx(pd_ref, abs=1e-10)


def test_angular_velocities_at_pole_are_flagged():
    td, pd = angular_velocities(np.array([0.0, 0.0, 1.0]), np.array([0.1, 0.0, 1.0]))
    assert math.isnan(td) and math.isnan(pd)


def test_angular_velocities_consistent_with_finite_differences():
    # field form vs centered differences of the angle series: halving the
    # step must shrink the disagreement by at least the stated factor
    h, H, w = -0.6, 0.45, 3.0
    fp = FieldParams.circular(h, H, w)

    def max_disagreement(n):
        ts, p = rabi_unit_trajectory(ACOS13, 0.3, h, H, w, 1, n)
        dt = ts[1] - ts[0]
        theta = np.arccos(np.clip(p[:, 2], -1, 1))
        td_fd = (theta[2:] - theta[:-2]) / (2 * dt)
        errs = []
        for i in range(1, len(ts) - 1):
            td, _ = angular_velocities(p[i], field_at(ts[i], fp))
            if not math.isnan(td):
                errs.append(abs(td - td_fd[i - 1]))
        return max(errs)

    e1, e2 = max_disagreement(201), max_disagreement(401)
    assert e1 / e2 > 3.8


def test_consistent_field_precession_rate():
    # consistent elliptic drive at resonance: precession rate = w dn(wt|k)
    from spinhodo.elliptic import jacobi_sncndn
    from spinhodo.qubit import analytic_elliptic_resonance
    h, w, k = 0.5, 0.3, 0.7
    fp = FieldParams.elliptic(h, w, w, k)
    ts = np.linspace(0.1, 20.0, 500)
    R = analytic_elliptic_resonance(ts, h, w, k)
    for i in np.arange(0, len(ts), 7):
        td, pd = angular_velocities(R[i], field_at(ts[i], fp))
        if math.isnan(pd):
            continue
        dn = jacobi_sncndn(w * ts[i], k)[2]
        assert pd == pytest.approx(w * dn, abs=1e-10)


# ------------------------------------------------------------------- Frenet

def test_great_circle_geometry():
    # equatorial precession in a purely longitudinal field
    Hl = 0.8
    ts = np.linspace(0.0, 2 * math.pi / Hl, 1001)
    c, s, z = np.cos(Hl * ts), np.sin(Hl * ts), np.zeros_like(ts)
    jets = [np.stack(v, axis=1) for v in ((c, s, z), (-Hl * s, Hl * c, z),
                                          (-Hl ** 2 * c, -Hl ** 2 * s, z),
                                          (Hl ** 3 * s, -Hl ** 3 * c, z))]
    series = frenet_geometry(ts, *jets)
    assert np.nanmax(np.abs(series.curvature - 1.0)) < 1e-8
    assert np.nanmax(np.abs(series.torsion)) < 1e-6
    assert np.max(np.abs(series.speed - Hl)) < 1e-10
    assert series.arc_length[-1] == pytest.approx(2 * math.pi, rel=1e-10)


def test_frenet_validation():
    ts = np.linspace(0, 1, 30)
    d = np.ones((30, 3))
    s = np.zeros((30, 3))
    s[:, 2] = 2.0
    frenet_geometry(ts, s, d, d, d)        # any nonzero length defines p
    s[7] = 0.0
    with pytest.raises(ValueError, match="direction undefined"):
        frenet_geometry(ts, s, d, d, d)    # a vanishing vector has no direction
    s[7] = np.nan
    with pytest.raises(ValueError, match="direction undefined"):
        frenet_geometry(ts, s, d, d, d)
    s[7, 2] = 2.0
    with pytest.raises(ValueError, match="shape"):
        frenet_geometry(ts, s, d, d, d[:-1])
    bad_t = np.concatenate([np.linspace(0, 1, 20), np.linspace(1.2, 2, 10)])
    s[:] = [0.0, 0.0, 1.0]
    with pytest.raises(ValueError, match="uniform"):
        frenet_geometry(bad_t, s, d, d, d)  # non-uniform grid


def test_resonance_geometry_matches_frenet_geometry():
    for h, w, n in [(0.5, 0.2, 4001), (0.5, 5.0, 8001)]:
        ts, R = resonance_trajectory(h, w, n)
        series = frenet_geometry(ts, *with_jets(ts, R, h, w, w))
        kr, tr, vr, sr = resonance_geometry(ts, h, w)
        T = ts[-1]
        ok = series.valid & (ts > 0.02 * T) & (ts < 0.98 * T)
        assert np.nanmax(np.abs(series.curvature[ok] - kr[ok])) < 1e-6
        assert np.nanmax(np.abs(series.torsion[ok] - tr[ok])) < 1e-6
        assert np.nanmax(np.abs(series.speed[ok] - vr[ok])) < 1e-9
        assert abs(series.arc_length[-1] - sr[-1]) / sr[-1] < 0.005


def test_resonance_geometry_point_values():
    h, w = 0.5, 5.0
    k0, kap0, v0, s0 = resonance_geometry(0.0, h, w)
    assert v0 == pytest.approx(abs(h), abs=1e-12)
    assert s0 == 0.0
    # starting curvature equals the planar-spiral value sqrt(1 + 4 w^2/h^2)
    assert k0 == pytest.approx(math.sqrt(1.0 + 4.0 * w * w / (h * h)), rel=1e-12)
    # negligible precession: arc grows linearly at rate |h|
    k1, kap1, v1, s1 = resonance_geometry(3.0, 0.5, 0.0)
    assert v1 == pytest.approx(0.5, abs=1e-14)
    assert s1 == pytest.approx(1.5, abs=1e-12)


def test_resonance_geometry_validates_amplitude():
    with pytest.raises(ValueError):
        resonance_geometry(1.0, 0.0, 0.2)


def test_adjoining_sphere_identity_on_closed_forms():
    h, w = 0.5, 0.2
    ts = np.linspace(0.0, 2 * math.pi / h, 4001)
    kr, tr, vr, _ = resonance_geometry(ts, h, w)
    kd = fd_derivative(kr, ts[1] - ts[0], 1)
    res = adjoining_sphere_residual(kr, kd, vr, tr)
    assert np.nanmax(np.abs(res)) < 1e-8


def test_adjoining_sphere_identity_on_trajectory():
    ts, R = resonance_trajectory(0.5, 0.2, 4001)
    series = frenet_geometry(ts, *with_jets(ts, R, 0.5, 0.2, 0.2))
    res = adjoining_sphere_residual(series.curvature, curvature_rate(series),
                                    series.speed, series.torsion)
    frac = np.mean(np.abs(res[np.isfinite(res)]) < 1e-4)
    assert frac >= 0.95


def test_adjoining_sphere_residual_refines_at_fd_order():
    # grids coarse enough that truncation (not roundoff) dominates
    meds = []
    for n in (201, 401):
        ts, R = resonance_trajectory(0.5, 0.2, n)
        series = frenet_geometry(ts, *with_jets(ts, R, 0.5, 0.2, 0.2))
        res = adjoining_sphere_residual(series.curvature, curvature_rate(series),
                                        series.speed, series.torsion)
        meds.append(np.nanmedian(np.abs(res)))
    assert meds[0] / meds[1] > 8.0


def test_frenet_rotation_invariance():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3))
    Q, _ = np.linalg.qr(A)
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1.0
    ts, R = resonance_trajectory(0.5, 0.2, 301)
    jets = with_jets(ts, R, 0.5, 0.2, 0.2)
    a = frenet_geometry(ts, *jets)
    b = frenet_geometry(ts, *(d @ Q.T for d in jets))
    assert np.nanmax(np.abs(a.curvature - b.curvature)) < 1e-9
    assert np.nanmax(np.abs(a.torsion - b.torsion)) < 1e-9
    assert np.max(np.abs(a.speed - b.speed)) < 1e-12
    assert abs(a.arc_length[-1] - b.arc_length[-1]) < 1e-9


# -------------------------------------------------------------------- events

def test_cusps_detected_on_cusped_trajectory():
    ts, p = rabi_unit_trajectory(ACOS13, math.pi / 4, 0.6, 0.5, 3.0, 6, 24001)
    series = frenet_geometry(ts, *with_jets(ts, p, 0.6, 0.5, 3.0))
    cusps = detect_cusps(series)
    assert len(cusps) >= 6          # at least one per period
    assert min(c.speed for c in cusps) < 0.02


def test_no_cusps_on_smooth_resonance():
    ts, R = resonance_trajectory(0.5, 0.2, 4001)
    series = frenet_geometry(ts, *with_jets(ts, R, 0.5, 0.2, 0.2))
    assert detect_cusps(series) == []


def test_loops_present_with_interfering_precession():
    ts, p = rabi_unit_trajectory(ACOS13, 0.0, -0.6, 0.45, 3.0, 7, 7001)
    assert len(detect_loops(ts, p)) > 0


def test_no_loops_on_slow_resonance():
    ts, R = resonance_trajectory(0.5, 0.2, 4001)
    assert detect_loops(ts, R) == []


def _detect_loops_reference(times, p, max_segments=1500, guard=3):
    """Brute-force loop detector: each chord against all later chords.

    Returns the subsampled times and every piercing as (i, sign index, j),
    sign index 0 for +x and 1 for -x, in that lexicographic order."""
    times = np.asarray(times, dtype=float)
    p = np.asarray(p, dtype=float)
    n = len(p)
    stride = max(1, int(math.ceil((n - 1) / max_segments)))
    idx = np.arange(0, n, stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    q = p[idx]
    tq = times[idx]
    m = len(q) - 1
    closed = np.linalg.norm(q[0] - q[-1]) < 1e-6

    a, b = q[:-1], q[1:]
    normals = np.cross(a, b)
    nlen = np.linalg.norm(normals, axis=1)
    ok = nlen > 1e-14
    events = []
    for i in range(m - guard - 1):
        if not ok[i]:
            continue
        j0 = i + guard + 1
        js = np.arange(j0, m)
        if closed and i < guard:  # cyclic neighbourhood of the seam
            js = js[js < m - (guard - i)]
        if len(js) == 0:
            continue
        js = js[ok[js]]
        if len(js) == 0:
            continue
        line = np.cross(normals[i], normals[js])
        llen = np.linalg.norm(line, axis=1)
        good = llen > 1e-14
        if not np.any(good):
            continue
        js = js[good]
        x = line[good] / llen[good, None]
        n1 = normals[i] / nlen[i]
        n2 = normals[js] / nlen[js, None]
        for s, sign in enumerate((1.0, -1.0)):
            xs = sign * x
            in1 = (np.einsum("ij,j->i", np.cross(np.broadcast_to(a[i], xs.shape), xs), n1) >= -1e-12) \
                & (np.einsum("ij,j->i", np.cross(xs, np.broadcast_to(b[i], xs.shape)), n1) >= -1e-12)
            in2 = (np.einsum("ij,ij->i", np.cross(a[js], xs), n2) >= -1e-12) \
                & (np.einsum("ij,ij->i", np.cross(xs, b[js]), n2) >= -1e-12)
            for jj in np.flatnonzero(in1 & in2):
                events.append((i, s, int(js[jj])))
    return tq, events


def _merge_reference(piercings):
    """The first piercing of each crossing, by flood fill: a crossing takes
    in every piercing with the same sign whose chords are each within 1 of
    one of its piercings'."""
    left = list(piercings)
    firsts = []
    while left:
        crossing = [left.pop(0)]
        firsts.append(crossing[0])
        for i, s, j in crossing:   # grows while it is walked
            near = [e for e in left
                    if e[1] == s and abs(e[0] - i) <= 1 and abs(e[2] - j) <= 1]
            left = [e for e in left if e not in near]
            crossing.extend(near)
    return firsts


def _crossings_reference(times, p, max_segments=1500, guard=3):
    tq, piercings = _detect_loops_reference(times, p, max_segments, guard)
    return [LoopEvent(float(tq[i]), float(tq[j])) for i, _, j in _merge_reference(piercings)]


def degenerate_polyline():
    """A looping trajectory with a kink through the midpoint X of a far
    chord, a 1e-13 chord starting at X, and repeated samples."""
    ts, p = rabi_unit_trajectory(ACOS13, 0.0, -0.6, 0.45, 3.0, 3, 1200)
    mid = p[700] + p[701]
    x = mid / np.linalg.norm(mid)
    u = np.cross(x, [0.0, 0.0, 1.0])
    p[100] = x
    p[101] = x + 1e-13 * u / np.linalg.norm(u)
    p[101] /= np.linalg.norm(p[101])
    p[103] = p[102]
    p[400:403] = p[399]
    return ts, p


def zigzag_polyline(n):
    """Chords zigzagging across a 0.02 rad strip, each a little above the
    last: every pair of bounding balls overlaps, yet no chords cross."""
    k = np.arange(n)
    v = np.stack([np.where(k % 2 == 0, -0.01, 0.01), 1e-6 * k, np.ones(n)], axis=1)
    return np.linspace(0.0, 1.0, n), v / np.linalg.norm(v, axis=1)[:, None]


LOOP_CASES = {
    "interfering": lambda: rabi_unit_trajectory(ACOS13, 0.0, -0.6, 0.45, 3.0, 7, 7001),
    # one resonant Rabi period ends where it started, at the pole: closed,
    # and the seam rule drops the first and last chords, which meet there
    "closed": lambda: resonance_trajectory(0.5, 2.0, 3001),
    # 4001 samples: stride 3, with the last sample appended
    "strided": lambda: rabi_unit_trajectory(ACOS13, 0.3, -0.6, 0.45, 3.0, 5, 4001),
    "degenerate": degenerate_polyline,
}


@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_loops_match_brute_force(case):
    ts, p = LOOP_CASES[case]()
    for max_segments, guard in ((1500, 3), (400, 0)):
        events = detect_loops(ts, p, max_segments, guard)
        assert events, "each case has self-intersections"
        assert events == _crossings_reference(ts, p, max_segments, guard)


@pytest.mark.parametrize("case", ["interfering", "closed"])
def test_loops_do_not_depend_on_strip_and_batch_sizes(case, monkeypatch):
    # 5-chord strips and 7-pair batches: a flush in nearly every strip, and
    # batches that split one strip's candidates
    ts, p = LOOP_CASES[case]()
    expected = detect_loops(ts, p)
    monkeypatch.setattr(geometry, "_STRIP", 5)
    monkeypatch.setattr(geometry, "_BATCH", 7)
    assert detect_loops(ts, p) == expected


def test_merge_counts_a_vertex_crossing_once():
    # two great circles crossing at a vertex of each, samples 5 and 16: the
    # two chords on each side of it pierce pairwise, and that is one event,
    # named by its first piercing
    s = np.linspace(-0.5, 0.5, 11)
    one = np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], axis=1)
    two = np.stack([np.cos(s), np.zeros_like(s), np.sin(s)], axis=1)
    p = np.concatenate([one, two[::-1]])
    ts = np.arange(len(p), dtype=float)
    _, piercings = _detect_loops_reference(ts, p)
    assert piercings == [(4, 1, 15), (4, 1, 16), (5, 1, 15), (5, 1, 16)]
    assert detect_loops(ts, p) == [LoopEvent(4.0, 15.0)]


@st.composite
def spherical_walks(draw):
    """A random walk of great-circle steps, its lengths mixed from 1e-4 to 2
    rad with some repeated samples, closed or open, and a segment budget
    that subsamples it or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(8, 160))
    x = rng.standard_normal(3)
    points = [x / np.linalg.norm(x)]
    for step in np.where(rng.random(n - 1) < 0.03, 0.0, 10.0 ** rng.uniform(-4.0, 0.3, n - 1)):
        x = points[-1]
        u = rng.standard_normal(3)
        u -= (u @ x) * x
        u /= np.linalg.norm(u)
        points.append(math.cos(step) * x + math.sin(step) * u)
    if draw(st.booleans()):
        points.append(points[0])
    p = np.array(points)
    max_segments = max(1, (len(p) - 1) // draw(st.sampled_from([1, 2, 3])))
    return np.linspace(0.0, 1.0, len(p)), p, max_segments


@settings(max_examples=60, deadline=None)
@given(walk=spherical_walks(), guard=st.sampled_from([0, 3]))
def test_loops_match_brute_force_on_random_walks(walk, guard):
    ts, p, max_segments = walk
    assert detect_loops(ts, p, max_segments, guard) == \
        _crossings_reference(ts, p, max_segments, guard)


@pytest.mark.parametrize("polyline", [
    lambda: rabi_unit_trajectory(ACOS13, 0.0, -0.6, 0.45, 3.0, 7, 1501),
    lambda: zigzag_polyline(1501),
], ids=["interfering", "all-pairs-candidates"])
def test_detect_loops_memory_is_bounded(polyline):
    ts, p = polyline()
    tracemalloc.start()
    try:
        detect_loops(ts, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_energy_peaks_at_cusps():
    # at every cusp the qubit energy has a local maximum
    from spinhodo.qubit import qubit_energy
    h, H, w = 0.6, 0.5, 3.0
    fp = FieldParams.circular(h, H, w)
    ts, p = rabi_unit_trajectory(ACOS13, math.pi / 4, h, H, w, 6, 24001)
    R = analytic_rabi_general(ts, InitialAngles(ACOS13, math.pi / 4), h, H, w, 0.0)
    series = frenet_geometry(ts, *with_jets(ts, p, h, H, w))
    energy = np.array([qubit_energy(R[i], field_at(ts[i], fp)) for i in range(len(ts))])
    dt = ts[1] - ts[0]
    for c in detect_cusps(series):
        i = int(round(c.t / dt))
        lo, hi = max(0, i - 60), min(len(ts), i + 61)
        j = lo + int(np.argmax(energy[lo:hi]))
        assert abs(ts[j] - c.t) < 30 * dt
        assert energy[j] >= energy[lo] and energy[j] >= energy[hi - 1]


def test_torsion_sign_change_counting():
    assert count_torsion_sign_changes(np.array([1.0, 0.5, -0.2, 0.3, -0.1])) == 3
    # zeros inside the dead band do not flip the hysteresis state
    assert count_torsion_sign_changes(np.array([1.0, 1e-15, 1.0, -1.0])) == 1
    # the band scales with the sequence: an all-tiny one still flips
    tiny = np.array([1e-20, -1e-22, 1e-26, -1e-21])
    assert count_torsion_sign_changes(tiny) == 3
    assert count_torsion_sign_changes(np.array([])) == 0
    assert count_torsion_sign_changes(np.zeros(4)) == 0
    # a sequence ending on an exact zero that reads -2.9e-11 (fig8-fig10 at
    # t = 16 pi, max |torsion| 4.6) does not flip there
    assert count_torsion_sign_changes(np.array([4.6, 1.0, -1.0, 0.5, 1e-3, -2.9e-11])) == 2


def test_sign_ordering_near_torsion_flips():
    # the published qualitative chain: while the torsion is positive the speed
    # falls and the curvature rises, and past a + to - flip both turn.  The
    # flip here sits on a sample (t = T/2, where v has its minimum and the
    # curvature its maximum), so each side is compared with the flip itself.
    ts, p = rabi_unit_trajectory(ACOS13, 0.0, -0.6, 0.45, 3.0, 1, 4001)
    series = frenet_geometry(ts, *with_jets(ts, p, -0.6, 0.45, 3.0))
    tor, v, k = series.torsion, series.speed, series.curvature
    found = 0
    w = 40
    for i in range(w, len(ts) - w - 1):
        a, b = tor[i], tor[i + 1]
        if np.isfinite(a) and np.isfinite(b) and a > 0 > b and max(a, -b) > 1e-4:
            assert v[i - w] > v[i] and k[i - w] < k[i]
            assert v[i + 1 + w] > v[i + 1] and k[i + 1 + w] < k[i + 1]
            found += 1
    assert found >= 1
