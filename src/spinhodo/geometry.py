"""Hodograph diagnostics on the unit sphere: precession/nutation rates,
Frenet curvature/torsion/speed/arc length, the osculating-sphere identity,
closed-form resonance geometry, and cusp/loop event detection.

The Frenet layer takes the first three time derivatives of the sampled
vector from the equations of motion (:func:`~spinhodo.qubit.eom_jets`), so
curvature and torsion carry no differencing error.  Only the rate of the
curvature series, for the osculating-sphere identity, is a 7-point finite
difference on the uniform grid (Fornberg weights, shifted windows at the
edges).

Event detectors are vectorised over samples.  Loop detection tests chord
pairs of the subsampled polyline with a great-circle predicate.  A padded
bounding ball around each chord keeps every pair that predicate can accept;
the pairs whose balls may meet are found by one sort-and-sweep over the
balls' extents along z, and reach the predicate in bounded batches.  The
predicate itself is the unchanged per-pair arithmetic, so the events are
exact, not an approximation of a brute-force pass over all pairs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import incomplete_e

__all__ = [
    "GeometrySeries", "CuspEvent", "LoopEvent",
    "angular_velocities", "frenet_geometry",
    "resonance_geometry", "adjoining_sphere_residual", "curvature_rate",
    "detect_cusps", "detect_loops", "count_torsion_sign_changes",
    "fd_derivative", "fornberg_weights",
]

_STENCIL = 7
_POLE_RHO = 1e-4          # below this transverse radius phi and the rates are flagged
_SPEED_FLOOR = 1e-6       # |p'| below this leaves curvature/torsion unreliable
_TORSION_BAND = 1e-9      # torsion signs count beyond this share of max |torsion|
_BATCH = 8192             # interval pairs per batch of the sweep, at most
_SHORT_ARC = 1e-10        # |a x b| below this: the arc gets no bounding ball
_BALL_PAD = 1e-9          # covers the 1e-12 predicate slack and rounding
_DOT_SLACK = 1e-14        # rounding of the centre dot products
# The chord-ball test keeps c_i.c_j >= 1 - reach^2/2 - _DOT_SLACK.  The centres
# are unit to 2.2e-16, and the dot product and the threshold round by a few
# 1e-16, so the test keeps |c_i - c_j|^2 <= reach^2 + 2 _DOT_SLACK + 2e-15 at
# most, and |c_i - c_j| <= reach + sqrt(2.2e-14) = reach + 1.5e-7.  The z
# coordinates of such a pair then differ by at most r_i + r_j + 1.5e-7, so
# their z intervals, each widened by _SWEEP_PAD, overlap; the pad also covers
# the rounding of the interval ends.
_SWEEP_PAD = 1e-6
_CUSP_SPEED = 0.05        # a cusp's speed is below this share of the median speed
_CUSP_CURVATURE = 50.0    # and its curvature above this multiple of the median


def fornberg_weights(z, x, m):
    """Finite-difference weights for derivatives 0..m at point z on nodes x.

    Classic Fornberg recursion; rows of the returned (m+1, len(x)) array are
    the weights of the 0th..mth derivative.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    c = np.zeros((m + 1, n))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for s in range(mn, 0, -1):
                    c[s, i] = c1 * (s * c[s - 1, i - 1] - c5 * c[s, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for s in range(mn, 0, -1):
                c[s, j] = ((x[i] - z) * c[s, j] - s * c[s - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


# weight tables for a 7-point window, evaluation at window positions 0..6
_W = {m: np.array([fornberg_weights(p, np.arange(_STENCIL), m)[m]
                   for p in range(_STENCIL)])
      for m in (1, 2, 3)}


def fd_derivative(F, dt, order):
    """order-th time derivative of samples F (n,) or (n, d), uniform step dt.

    Interior points use the centered 7-point stencil; the first/last three
    use shifted windows of the same width, so every sample gets a value.
    """
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    if n < _STENCIL:
        raise ValueError(f"need at least {_STENCIL} samples, got {n}")
    w = _W[order]
    out = np.zeros_like(F)
    center = w[3]
    for j in range(_STENCIL):  # vectorized over the long interior
        out[3:n - 3] += center[j] * F[j:n - _STENCIL + 1 + j]
    for i in (0, 1, 2):
        out[i] = np.tensordot(w[i], F[:_STENCIL], axes=(0, 0))
    for i in (n - 3, n - 2, n - 1):
        pos = i - (n - _STENCIL)
        out[i] = np.tensordot(w[pos], F[n - _STENCIL:], axes=(0, 0))
    return out / dt ** order


def _cumulative_parabolic(f, dt):
    """Cumulative integral of samples f on a uniform grid, local parabolas.

    Each increment integrates the quadratic through three neighbouring
    samples over one subinterval (the scheme behind cumulative Simpson).
    """
    n = len(f)
    out = np.zeros(n)
    if n == 1:
        return out
    if n == 2:
        out[1] = 0.5 * dt * (f[0] + f[1])
        return out
    inc = np.empty(n - 1)
    inc[0] = dt * (5.0 * f[0] + 8.0 * f[1] - f[2]) / 12.0
    inc[1:] = dt * (-f[:-2] + 8.0 * f[1:-1] + 5.0 * f[2:]) / 12.0
    out[1:] = np.cumsum(inc)
    return out


def angular_velocities(p, h):
    """Field-form nutation and precession rates (theta', phi') at a point.

    theta' = (h2 p1 - h1 p2)/sqrt(1 - p3^2),
    phi'   = h3 - (h1 p1 + h2 p2) p3/(p1^2 + p2^2).

    Valid for dynamics whose unit vector precesses as p' = h x p; near the
    poles both are returned as NaN (undefined-direction signal).
    """
    p = np.asarray(p, dtype=float)
    h = np.asarray(h, dtype=float)
    rho2 = p[0] ** 2 + p[1] ** 2
    if rho2 <= _POLE_RHO ** 2:
        return math.nan, math.nan
    rho = math.sqrt(rho2)
    theta_dot = (h[1] * p[0] - h[0] * p[1]) / rho
    phi_dot = h[2] - (h[0] * p[0] + h[1] * p[1]) * p[2] / rho2
    return theta_dot, phi_dot


@dataclass
class GeometrySeries:
    """Per-sample hodograph diagnostics over a uniform time grid.

    `valid` marks samples whose curvature/torsion are trustworthy (speed
    above the floor); `pole` marks samples where phi and the angular rates
    are undefined (transverse radius below threshold).
    """

    times: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    theta_dot: np.ndarray
    phi_dot: np.ndarray
    curvature: np.ndarray
    torsion: np.ndarray
    speed: np.ndarray
    arc_length: np.ndarray
    valid: np.ndarray
    pole: np.ndarray

    def __len__(self):
        return len(self.times)


def _unwrap_skipping(phi_raw, defined):
    """Continuity unwrap of raw azimuths, carrying the branch across pole
    gaps; undefined samples stay NaN.

    Each step between consecutive defined samples is wrapped into (-pi, pi]
    and the steps are summed onto the first defined azimuth.
    """
    phi = np.full_like(phi_raw, np.nan)
    idx = np.flatnonzero(defined)
    if idx.size:
        raw = phi_raw[idx]
        steps = (np.diff(raw) + math.pi) % (2.0 * math.pi) - math.pi
        steps[steps == -math.pi] = math.pi
        phi[idx] = np.cumsum(np.concatenate((raw[:1], steps)))
    return phi


def frenet_geometry(times, s, ds, d2s, d3s):
    """Frenet diagnostics of the direction p = s/|s| of a sampled vector s.

    `s` and its first three time derivatives, each (n, 3) on a uniform time
    grid, come from the equations of motion (:func:`~spinhodo.qubit.eom_jets`),
    so no derivative is taken numerically; p', p'' and p''' follow from them
    by the quotient rule.  Returns a :class:`GeometrySeries` with curvature
    |p' x p''|/|p'|^3, torsion (p', p'', p''')/|p' x p''|^2, speed |p'|,
    cumulative arc length, spherical angles (phi unwrapped), and the angular
    rates of p.
    """
    times = np.asarray(times, dtype=float)
    s, ds, d2s, d3s = (np.asarray(x, dtype=float) for x in (s, ds, d2s, d3s))
    if len(times) < 2:
        raise ValueError("need at least 2 samples")
    if not s.shape == ds.shape == d2s.shape == d3s.shape == (len(times), 3):
        raise ValueError("s and its three derivatives must each have shape (n, 3)")
    dts = np.diff(times)
    dt = dts[0]
    if np.max(np.abs(dts - dt)) > 1e-9 * max(abs(dt), 1e-30):
        raise ValueError("time grid must be uniform")
    norms = np.linalg.norm(s, axis=1)
    if not np.all(norms > 0.0):
        raise ValueError("s vanishes or is not finite: direction undefined")

    p, d1, d2, d3 = _direction_jets(s, ds, d2s, d3s, norms)

    speed = np.linalg.norm(d1, axis=1)
    cross = _cross(d1, d2)
    ncross = np.linalg.norm(cross, axis=1)
    valid = speed > _SPEED_FLOOR

    with np.errstate(divide="ignore", invalid="ignore"):
        curvature = np.where(valid, ncross / np.maximum(speed, 1e-300) ** 3, np.nan)
        torsion = np.where(valid & (ncross > 1e-300),
                           _rowdot(cross, d3) / np.maximum(ncross, 1e-300) ** 2,
                           np.nan)
    del d2, d3, cross   # p and p' are all the angles below need
    arc = _cumulative_parabolic(speed, dt)

    theta = np.arccos(np.clip(p[:, 2], -1.0, 1.0))
    rho2 = p[:, 0] ** 2 + p[:, 1] ** 2
    pole = rho2 <= _POLE_RHO ** 2
    defined = ~pole
    phi_raw = np.where(defined, np.arctan2(p[:, 1], p[:, 0]), np.nan)
    phi = _unwrap_skipping(phi_raw, defined)

    with np.errstate(divide="ignore", invalid="ignore"):
        theta_dot = np.where(defined, -d1[:, 2] / np.sqrt(np.maximum(rho2, 1e-300)), np.nan)
        phi_dot = np.where(defined,
                           (p[:, 0] * d1[:, 1] - p[:, 1] * d1[:, 0]) / np.maximum(rho2, 1e-300),
                           np.nan)

    return GeometrySeries(times, theta, phi, theta_dot, phi_dot,
                          curvature, torsion, speed, arc, valid, pole)


def _direction_jets(s, ds, d2s, d3s, norms):
    """p = s/|s| and its first three derivatives, by the quotient rule.

    With p = u s, u = |s|^-1, a = |s|^2 and e_j = a^(j)/a, the ratios u^(j)/u
    are -e1/2, 3 e1^2/4 - e2/2 and -15 e1^3/8 + 9 e1 e2/4 - e3/2, and
    p^(j) = u sum_i C(j, i) (u^(i)/u) s^(j-i).
    """
    a = norms * norms
    e1 = 2.0 * _rowdot(s, ds) / a
    e2 = 2.0 * (_rowdot(ds, ds) + _rowdot(s, d2s)) / a
    e3 = 2.0 * (3.0 * _rowdot(ds, d2s) + _rowdot(s, d3s)) / a
    u1 = (-0.5 * e1)[:, None]
    u2 = (0.75 * e1 * e1 - 0.5 * e2)[:, None]
    u3 = (-1.875 * e1 ** 3 + 2.25 * e1 * e2 - 0.5 * e3)[:, None]
    norms = norms[:, None]
    # summed in place, so one (n, 3) temporary is alive at a time
    d1 = u1 * s
    d1 += ds
    d1 /= norms
    d2 = u2 * s
    d2 += (2.0 * u1) * ds
    d2 += d2s
    d2 /= norms
    d3 = u3 * s
    d3 += (3.0 * u2) * ds
    d3 += (3.0 * u1) * d2s
    d3 += d3s
    d3 /= norms
    return s / norms, d1, d2, d3


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _cross(a, b):
    """Row-wise a x b of two (n, 3) arrays: np.cross's arithmetic, without
    the copies of both inputs that np.cross makes."""
    out = np.empty_like(a)
    tmp = np.empty(len(a))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[:, j], b[:, k], out=out[:, i])
        np.multiply(a[:, k], b[:, j], out=tmp)
        out[:, i] -= tmp
    return out


def resonance_geometry(t, h, omega):
    """Closed-form curvature, torsion, speed, arc length on the resonant
    circular-field hodograph (north-pole start, detuning zero).

    The cos(4ht) term of the curvature radicand enters with a minus sign;
    with it the radicand equals 8 |p' x p''|^2 identically (and the
    formulas reproduce the published figure ranges, which the plus sign
    cannot: it makes the radicand negative for omega >> |h|).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if h == 0.0:
        raise ValueError("resonance geometry needs a nonzero transverse amplitude")
    h2, w2 = h * h, omega * omega
    c2 = np.cos(2.0 * h * t_arr)
    c4 = np.cos(4.0 * h * t_arr)
    sh = np.sin(h * t_arr)

    A = (h2 + 3.0 * w2) * (8.0 * h2 * h2 + 4.0 * w2 * h2 + w2 * w2)
    g = 4.0 * (w2 * w2 - h2 * h2 + 3.0 * w2 * h2) * w2 * c2 - (w2 - h2) * w2 * w2 * c4
    radicand = np.maximum(A - g, 0.0)

    speed2 = h2 + w2 * sh * sh
    speed = np.sqrt(speed2)
    denom = (2.0 * speed2) ** 1.5
    curvature = np.sqrt(radicand) / denom

    kap_num = -4.0 * h * omega * (4.0 * h2 * h2 + 7.0 * w2 * h2 + w2 * w2
                                  + w2 * (h2 - w2) * c2) * sh
    with np.errstate(divide="ignore", invalid="ignore"):
        torsion = np.where(radicand > 1e-300, kap_num / radicand, np.nan)

    m = -w2 / h2
    arc = np.array([incomplete_e(abs(h) * ti, m) for ti in t_arr])

    if np.ndim(t) == 0:
        return curvature[0], torsion[0], speed[0], arc[0]
    return curvature, torsion, speed, arc


def curvature_rate(series):
    """dk/dt along a geometry series (7-point finite difference)."""
    dt = series.times[1] - series.times[0]
    k = np.where(np.isfinite(series.curvature), series.curvature, 0.0)
    return fd_derivative(k, dt, 1)


def adjoining_sphere_residual(curvature, curvature_dot, speed, torsion):
    """Deviation of 1/k^2 + (k'/(v k^2 kappa))^2 from the unit-sphere value 1.

    NaN where torsion or speed is too small for the identity to be
    conditioned (those samples are skipped by callers).
    """
    k = np.asarray(curvature, dtype=float)
    kd = np.asarray(curvature_dot, dtype=float)
    v = np.asarray(speed, dtype=float)
    kap = np.asarray(torsion, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        res = 1.0 / k ** 2 + (kd / (v * k * k * kap)) ** 2 - 1.0
        bad = (np.abs(kap) < 1e-9) | (v < _SPEED_FLOOR) | ~np.isfinite(res)
    return np.where(bad, np.nan, res)


@dataclass(frozen=True)
class CuspEvent:
    t: float
    speed: float
    curvature: float


@dataclass(frozen=True)
class LoopEvent:
    t_a: float
    t_b: float


def detect_cusps(series):
    """Cusps: local speed minima below _CUSP_SPEED x median speed with a
    curvature spike above _CUSP_CURVATURE x median curvature."""
    v = series.speed
    k = series.curvature
    med_v = float(np.median(v))
    med_k = float(np.nanmedian(k))
    vi, ki = v[1:-1], k[1:-1]
    cusp = ((vi <= v[:-2]) & (vi <= v[2:]) & (vi < _CUSP_SPEED * med_v)
            & np.isfinite(ki) & (ki > _CUSP_CURVATURE * med_k))
    return [CuspEvent(float(series.times[i]), float(v[i]), float(k[i]))
            for i in np.flatnonzero(cusp) + 1]


def count_torsion_sign_changes(torsion, rel_band=_TORSION_BAND):
    """Count sign flips of the torsion sequence.

    A sign is read only where |torsion| exceeds `rel_band` times the largest
    |torsion| of the sequence, and a flip must cross from one side of that
    band to the other (hysteresis).  The band scales with the sequence
    because the error of a computed torsion does: where the exact torsion
    has a zero it touches or ends on (fig8-fig10 end on one at t = 16 pi),
    the computed value is noise many orders below the torsion's scale, and
    a fixed band would count its sign.
    """
    kap = np.asarray(torsion, dtype=float)
    kap = kap[np.isfinite(kap)]
    if kap.size == 0:
        return 0
    s = np.sign(kap) * (np.abs(kap) > rel_band * np.max(np.abs(kap)))
    s = s[s != 0]
    return int(np.count_nonzero(s[1:] != s[:-1]))


def detect_loops(times, p, max_segments=1500, guard=3):
    """Parameter-distant self-intersections of the spherical polyline.

    The polyline is subsampled to at most `max_segments` chords; two chords
    intersect when the line of their great-circle planes pierces both short
    arcs (tested for both directions of the line, with a 1e-12 slack).
    Chord pairs closer than `guard` segments (cyclically, when the trajectory
    is closed) are excluded.

    A crossing at or near a chord vertex pierces the two chords on each side
    of it, so it can be found 1, 2 or 4 times.  Piercings with the same
    direction whose first chords and whose second chords each differ by at
    most 1 are one crossing; the relation is closed transitively, and each
    crossing is reported once, as its first piercing.  Events are ordered by
    the first chord, then the direction (+ before -), then the second chord.

    Each chord is bounded by a ball around its arc, padded beyond the
    predicate's slack and rounding, and only pairs whose balls overlap are
    passed to the predicate.  The filter keeps every pair the predicate can
    accept and the predicate is unchanged, so the result is exact.  The
    balls that may meet are paired by one sort-and-sweep along z
    (:func:`_candidate_pairs`), in a fixed number of vector operations.
    """
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
    normals = _cross(a, b)
    nlen = np.linalg.norm(normals, axis=1)
    centre, radius = _chord_balls(a, b, nlen)

    chords = np.flatnonzero(nlen > 1e-14)   # a shorter chord has no plane
    hits = [_piercings(a, b, normals, nlen, *pairs)
            for pairs in _candidate_pairs(centre, radius, chords, guard, m, closed)]
    if not hits:
        return []
    i, sign, j = np.concatenate(hits, axis=1)
    order = np.lexsort((j, sign, i))
    i, sign, j = i[order], sign[order], j[order]
    return [LoopEvent(float(tq[i[k]]), float(tq[j[k]]))
            for k in _first_of_each_crossing(i, sign, j)]


def _first_of_each_crossing(i, sign, j):
    """Positions of the first piercing of each crossing, for piercings
    sorted by (i, sign, j): union-find over the neighbours (same sign, i and
    j each within 1) that come earlier in that order."""
    root = list(range(len(i)))

    def find(k):
        while root[k] != k:
            root[k] = root[root[k]]
            k = root[k]
        return k

    seen = {}
    for k, key in enumerate(zip(sign.tolist(), i.tolist(), j.tolist())):
        s, a, b = key
        for near in ((s, a - 1, b - 1), (s, a - 1, b), (s, a - 1, b + 1), (s, a, b - 1)):
            other = seen.get(near)
            if other is not None:
                r, q = find(other), find(k)
                root[max(r, q)] = min(r, q)
        seen[key] = k
    return [k for k in range(len(i)) if find(k) == k]


def _candidate_pairs(centre, radius, chords, guard, m, closed):
    """Pairs (i, j), i < j, of `chords` that the chord-ball test, the guard
    band and the seam rule keep, as (2, n) arrays of at most _BATCH pairs.

    Sort-and-sweep (Cohen et al., I-COLLIDE, 1995): with the balls' z
    intervals, widened by _SWEEP_PAD, sorted by their lower ends, each one
    overlaps the run of later ones that start at or before its upper end.
    The runs are expanded _BATCH pairs at a time, so memory stays bounded.
    """
    lo = centre[chords, 2] - radius[chords] - _SWEEP_PAD
    order = np.argsort(lo, kind="stable")
    ids, lo = chords[order], lo[order]
    (cx, cy, cz), r = centre[ids].T, radius[ids]
    stop = np.searchsorted(lo, cz + r + _SWEEP_PAD, side="right")   # past each run
    ends = np.cumsum(stop - np.arange(1, len(ids) + 1))   # past its pairs, flat
    held, n_held = [], 0   # kept pairs, passed on at most _BATCH at a time
    for start in range(0, ends[-1] if len(ends) else 0, _BATCH):
        other = np.arange(start, min(start + _BATCH, ends[-1]))   # flat, then the later ball
        k = np.searchsorted(ends, other, side="right")
        other += (stop - ends)[k]
        # the chord-ball test c_k.c_other >= 1 - reach^2/2 - _DOT_SLACK
        limit = r[k] + r[other]
        keep = cx[k] * cx[other] + cy[k] * cy[other] + cz[k] * cz[other] \
            >= 1.0 - 0.5 * limit * limit - _DOT_SLACK
        i, j = ids[k[keep]], ids[other[keep]]
        i, j = np.minimum(i, j), np.maximum(i, j)
        keep = j > i + guard
        if closed:  # cyclic neighbourhood of the seam
            keep &= j < i + (m - guard)
        if n_held + np.count_nonzero(keep) > _BATCH:
            yield np.concatenate(held, axis=1)
            held, n_held = [], 0
        held.append(np.stack([i[keep], j[keep]]))
        n_held += held[-1].shape[1]
    if held:
        yield np.concatenate(held, axis=1)


def _chord_balls(a, b, nlen):
    """Centre and radius of a ball around each chord's short arc a -> b,
    holding every point the piercing predicate can accept on that chord.

    An accepted point lies within the predicate's slack of the arc between
    the projections of a and b on the plane of the computed normal, up to
    its own distance from that plane.  The pad bounds both departures:

    * the computed normal a x b is off by at most 3.2e-16, which tilts it
      by 3.2e-16/|a x b|; the endpoints and the centre move by 3.5 times
      that at most (the 2e-15/|a x b| term);
    * the piercing direction is the normalised cross product of the two
      normals N_i, N_j; its error of 3.2e-16 |N_i||N_j| over a length of at
      least 1e-14 can put it 0.032 |N_i||N_j| off both planes, which the two
      balls cover with 0.032 (|N_i|^2 + |N_j|^2) (the 0.04 |N|^2 term);
    * the 1e-9 floor covers the slack and the rounding of centre and radius.

    Arcs shorter than _SHORT_ARC (below about 2e-12 the slack also admits
    the antipode) and arcs wider than a right angle get an infinite radius,
    so they are candidates against every chord.
    """
    mid = a + b
    bounded = (nlen >= _SHORT_ARC) & (np.einsum("ij,ij->i", a, b) > 0.0)
    centre = mid / np.where(bounded, np.linalg.norm(mid, axis=1), 1.0)[:, None]
    pad = _BALL_PAD + 2e-15 / np.maximum(nlen, _SHORT_ARC) + 0.04 * nlen * nlen
    radius = np.where(bounded, np.linalg.norm(a - centre, axis=1) + pad, np.inf)
    return centre, radius


def _piercings(a, b, normals, nlen, i, j):
    """Chord pairs (i, j) whose plane-intersection line pierces both short
    arcs, as rows (i, sign index, j) with sign index 0 for +x, 1 for -x.

    Each pair gets the arithmetic of testing one chord against many: the
    same elementwise operations and einsum dot products, so the same bits.
    """
    line = _cross(normals[i], normals[j])
    llen = np.linalg.norm(line, axis=1)
    good = llen > 1e-14
    i, j = i[good], j[good]
    x = line[good] / llen[good, None]
    n1 = normals[i] / nlen[i, None]
    n2 = normals[j] / nlen[j, None]
    # cross(a, -x) = -cross(a, x) exactly, so the four side products of +x
    # give those of -x by their signs
    sides = np.stack([_rowdot(_cross(a[i], x), n1), _rowdot(_cross(x, b[i]), n1),
                      _rowdot(_cross(a[j], x), n2), _rowdot(_cross(x, b[j]), n2)])
    found = []
    for s, inside in enumerate((sides.min(axis=0) >= -1e-12, sides.max(axis=0) <= 1e-12)):
        found.append(np.stack([i[inside], np.full(np.count_nonzero(inside), s), j[inside]]))
    return np.concatenate(found, axis=1)
