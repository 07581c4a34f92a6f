"""Qubit drive fields, coherence-vector equation of motion, and the exact
rotating-frame solutions used as oracles.

Units: all field amplitudes and rates are angular frequencies (hbar = 1).
The coherence (Bloch) vector R obeys

    dR/dt = h(t) x R - (gamma2 R1, gamma2 R2, gamma1 (R3 - r_eq))

with the drive

    h(t) = (h1 cn(wt|k), h2 sn(wt|k), H dn(wt|k)),

which sweeps from a circularly polarized field (k=0, h1=h2) to hyperbolic
impulses (k=1).  The longitudinal modulation runs at twice the transverse
rate, hence "consistent" modulation.

One equation for both systems: the qubit and the qutrit are each
y' = M(t) y + b, with M(t) a fixed stack of generators weighted by
(1, cn, sn, dn) of the drive.  linear_rhs evaluates it for the integrator,
and eom_jets differentiates it.

Co-rotating frame.  With h1 = h2 = h, write R = Rz(phi) u with
phi = am(wt|k), so cos phi = cn, sin phi = sn and phi' = w dn.  Then u obeys
the same equation in the field (h, 0, (H - w) dn), since the damping
diag(gamma2, gamma2, gamma1) and the constant term (0, 0, gamma1 r_eq)
commute with Rz (Rabi, Ramsey & Schwinger, Rev. Mod. Phys. 26, 167, 1954).
At resonance, H = w, that field is the static (h, 0, 0) for every modulus,
damping and initial state, and R = (cn u1 - sn u2, sn u1 + cn u2, u3).  For
k = 0, dn = 1 and the field is the static (h, 0, H - w) at any H.  The cli
solves those drives with one matrix exponential.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .elliptic import sncndn_of

__all__ = [
    "FieldMode", "FieldParams", "DampingParams", "InitialAngles",
    "field_at", "make_bloch_rhs", "bloch_generators", "linear_rhs", "eom_jets",
    "analytic_rabi_general", "analytic_elliptic_resonance", "qubit_energy",
    "closed_trajectory_amplitude_qubit",
]


class FieldMode(Enum):
    CIRCULAR = "circular"
    LINEAR = "linear"
    ELLIPTIC = "elliptic"


@dataclass(frozen=True)
class FieldParams:
    """Drive-field amplitudes, frequency, and modulation shape.

    Amplitudes may be negative; no absolute values are taken anywhere.
    """

    h1: float
    h2: float
    H: float
    omega: float
    k: float = 0.0
    mode: FieldMode = FieldMode.CIRCULAR

    def __post_init__(self):
        for name in ("h1", "h2", "H", "omega"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (0.0 <= self.k <= 1.0):
            raise ValueError(f"elliptic modulus must lie in [0, 1], got {self.k}")
        if self.mode is FieldMode.CIRCULAR:
            if self.k != 0.0 or self.h1 != self.h2:
                raise ValueError("circular mode requires k = 0 and h1 = h2")
        elif self.mode is FieldMode.LINEAR:
            if self.k != 0.0 or self.h2 != 0.0:
                raise ValueError("linear mode requires k = 0 and h2 = 0")
        else:  # consistent elliptic modulation
            if self.h1 != self.h2:
                raise ValueError("elliptic mode requires h1 = h2")

    @classmethod
    def circular(cls, h, H, omega):
        return cls(h, h, H, omega, 0.0, FieldMode.CIRCULAR)

    @classmethod
    def linear(cls, h, H, omega):
        return cls(h, 0.0, H, omega, 0.0, FieldMode.LINEAR)

    @classmethod
    def elliptic(cls, h, H, omega, k):
        return cls(h, h, H, omega, k, FieldMode.ELLIPTIC)

    @property
    def detuning(self):
        return self.H - self.omega


@dataclass(frozen=True)
class DampingParams:
    """Longitudinal/transverse relaxation rates and equilibrium population."""

    gamma1: float = 0.0
    gamma2: float = 0.0
    r_eq: float = 0.0

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "r_eq"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("relaxation rates must be non-negative")

    @classmethod
    def uniform(cls, gamma):
        """Rabi-model damping: gamma1 = gamma2 = gamma, r_eq = 0."""
        return cls(gamma, gamma, 0.0)

    @property
    def is_uniform(self):
        return self.gamma1 == self.gamma2 and self.r_eq == 0.0


@dataclass(frozen=True)
class InitialAngles:
    """Pure initial state on the unit sphere (polar, azimuth)."""

    theta0: float = 0.0
    phi0: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.theta0 <= math.pi):
            raise ValueError(f"theta0 must lie in [0, pi], got {self.theta0}")
        if not math.isfinite(self.phi0):
            raise ValueError(f"phi0 must be finite, got {self.phi0!r}")

    def bloch(self):
        st = math.sin(self.theta0)
        return np.array([math.cos(self.phi0) * st,
                         math.sin(self.phi0) * st,
                         math.cos(self.theta0)])


def field_at(t, fp):
    """Drive field at time t: shape (3,) for a scalar t, (..., 3) for an
    array of times."""
    sn, cn, dn = sncndn_of(fp.k)(fp.omega * np.asarray(t, dtype=float))
    h = np.empty(np.shape(sn) + (3,))
    np.multiply(fp.h1, cn, out=h[..., 0])
    np.multiply(fp.h2, sn, out=h[..., 1])
    np.multiply(fp.H, dn, out=h[..., 2])
    return h


def bloch_generators(fp, dp):
    """The coherence-vector equation as R' = M(t) R + b, for :func:`eom_jets`.

    M(t) = G0 + cn G1 + sn G2 + dn G3 at the drive argument omega t, with
    G0 = -diag(gamma2, gamma2, gamma1) and G1, G2, G3 the cross-product
    matrices of (h1, 0, 0), (0, h2, 0) and (0, 0, H); b = (0, 0, gamma1 r_eq).
    Returns the stack G, shape (4, 3, 3), and b, shape (3,).
    """
    G = np.zeros((4, 3, 3))
    G[0] = np.diag([-dp.gamma2, -dp.gamma2, -dp.gamma1])
    G[1, 2, 1], G[1, 1, 2] = fp.h1, -fp.h1
    G[2, 0, 2], G[2, 2, 0] = fp.h2, -fp.h2
    G[3, 1, 0], G[3, 0, 1] = fp.H, -fp.H
    return G, np.array([0.0, 0.0, dp.gamma1 * dp.r_eq])


def make_bloch_rhs(fp, dp):
    """Right-hand side rhs(t, R) of the coherence-vector equation (3-array):
    :func:`linear_rhs` over the stack of :func:`bloch_generators`."""
    return linear_rhs(fp, *bloch_generators(fp, dp))


def linear_rhs(fp, G, b):
    """Right-hand side rhs(t, y) = M(t) y + b of the system of
    :func:`eom_jets`, for the integrator hot loop.

    M(t) = sum_i w_i G_i over the stack G of shape (4, dim, dim), with
    w = (1, cn, sn, dn) of the drive fp at omega t, is built before it is
    applied: the drive weighs the generators, as field_at the amplitudes, not
    their products with y.  b, shape (dim,), is added only when nonzero.  At
    omega = 0 every call still evaluates the drive, (0, 1, 1); the cli solves
    a drive static in its frame with one matrix exponential and no rhs.
    """
    G = np.asarray(G, dtype=float)
    M = np.empty(G.shape[1:])   # refilled in place by each call
    G, flat = G.reshape(4, -1), M.reshape(-1)
    drive, omega, w = sncndn_of(fp.k), fp.omega, np.ones(4)   # w = (1, cn, sn, dn)

    def rhs(t, y):
        w[2], w[1], w[3] = drive(omega * t)
        np.dot(w, G, out=flat)
        return np.dot(M, y)

    if not np.any(b):
        return rhs
    b = np.array(b, dtype=float)
    return lambda t, y: rhs(t, y) + b


_JET_BLOCK_ROWS = 256   # samples per block of eom_jets; bounds the temporaries


def eom_jets(fp, G, b, t, y):
    """First three time derivatives of the spin part of samples y of
    y' = M(t) y + b.

    M(t) = sum_i w_i G_i over the stack G of shape (4, dim, dim), weighted
    by w = (1, cn, sn, dn) of the drive fp at omega t; b is constant.  The
    equation of motion gives the derivatives exactly:

        y' = M y + b,   y'' = M' y + M y',   y''' = M'' y + 2 M' y' + M y'',

    with w' and w'' from sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn (each
    times omega).  Each generator is applied to the states, a block of
    rows at a time, so no per-sample matrix is built.  Both systems keep
    their spin vector in the first three components; the derivatives of
    those are returned, as three arrays of shape (n, 3).
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    drive, w, m = sncndn_of(fp.k), fp.omega, fp.k * fp.k
    Gt = np.asarray(G, dtype=float).transpose(0, 2, 1)
    jets = np.empty((3, len(t), 3))
    for r0 in range(0, len(t), _JET_BLOCK_ROWS):
        rows = slice(r0, r0 + _JET_BLOCK_ROWS)
        sn, cn, dn = drive(w * t[rows])
        zero = np.zeros_like(sn)
        w0 = np.stack([np.ones_like(sn), cn, sn, dn], axis=-1)
        w1 = w * np.stack([zero, -sn * dn, cn * dn, -m * sn * cn], axis=-1)
        w2 = (w * w) * np.stack([zero, cn * (m * sn * sn - dn * dn),
                                 -sn * (dn * dn + m * cn * cn),
                                 m * dn * (sn * sn - cn * cn)], axis=-1)
        Gy = y[rows] @ Gt                    # (4, rows, dim): each G_i applied
        d1 = _weigh(w0, Gy) + b
        Gd1 = d1 @ Gt
        d2 = _weigh(w1, Gy) + _weigh(w0, Gd1)
        d3 = _weigh(w2, Gy) + 2.0 * _weigh(w1, Gd1) + _weigh(w0, d2 @ Gt)
        jets[:, rows] = d1[:, :3], d2[:, :3], d3[:, :3]
    return jets[0], jets[1], jets[2]


def _weigh(w, Gy):
    """Row n of the result is sum_i w[n, i] Gy[i, n]."""
    return np.einsum("ni,inj->nj", w, Gy)


def _sinc_factors(Om, t):
    """S = sin(Om t)/Om and C2 = (1 - cos(Om t))/Om^2, cancellation-free.

    C2 uses the half-angle identity 2 sin^2(Om t / 2)/Om^2, so both factors
    stay exact through the Om -> 0 resonance-degenerate limit.
    """
    if Om == 0.0:
        t = np.asarray(t, dtype=float)
        return t.copy(), 0.5 * t * t
    x = Om * np.asarray(t, dtype=float)
    S = np.sin(x) / Om
    half = np.sin(0.5 * x) / Om       # Om * Om underflows for a subnormal Om
    C2 = 2.0 * half * half
    return S, C2


def analytic_rabi_general(t, angles, h, H, omega, gamma=0.0):
    """Exact coherence vector in a circularly polarized field, general pure
    initial state, uniform damping (gamma1 = gamma2 = gamma, r_eq = 0).

    Accepts scalar or array t; returns shape (3,) or (n, 3).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    delta = H - omega
    Om = math.hypot(delta, h)
    st0, ct0 = math.sin(angles.theta0), math.cos(angles.theta0)
    cp0, sp0 = math.cos(angles.phi0), math.sin(angles.phi0)

    S, C2 = _sinc_factors(Om, t_arr)
    cosOt = 1.0 - Om * Om * C2          # = cos(Om t), exact for Om = 0 too
    sw, cw = np.sin(omega * t_arr), np.cos(omega * t_arr)

    R1 = (-(st0 * (delta * cp0 * S + cosOt * sp0) - h * ct0 * S) * sw
          + (h * delta * ct0 * C2
             + st0 * (cp0 * (1.0 - delta * delta * C2) - delta * sp0 * S)) * cw)
    R2 = ((st0 * cp0 * (1.0 - delta * delta * C2) + delta * h * ct0 * C2
           - delta * st0 * sp0 * S) * sw
          - (h * ct0 * S - delta * st0 * cp0 * S - st0 * sp0 * cosOt) * cw)
    R3 = ct0 * (1.0 - h * h * C2) + h * st0 * (delta * cp0 * C2 + sp0 * S)

    R = np.stack([R1, R2, R3], axis=-1)
    if gamma != 0.0:
        R = R * np.exp(-gamma * t_arr)[..., None]
    return R[0] if np.isscalar(t) or np.ndim(t) == 0 else R


def analytic_elliptic_resonance(t, h, omega, k, gamma=0.0):
    """Exact coherence vector for the consistent elliptic field at resonance
    (detuning zero), north-pole start:

        R = e^{-gamma t} (sn(wt|k) sin ht, -cn(wt|k) sin ht, cos ht).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    sn, cn, _ = sncndn_of(k)(omega * t_arr)
    sh, ch = np.sin(h * t_arr), np.cos(h * t_arr)
    R = np.stack([sn * sh, -cn * sh, ch], axis=-1)
    if gamma != 0.0:
        R = R * np.exp(-gamma * t_arr)[..., None]
    return R[0] if np.isscalar(t) or np.ndim(t) == 0 else R


def qubit_energy(R, h):
    """Mean energy (1/2) sum_i h_i R_i of the qubit in field h; R and h of
    shape (..., 3) give one energy per leading index."""
    return 0.5 * np.einsum("...i,...i->...", h, R)


def closed_trajectory_amplitude_qubit(x, y, omega, H):
    """Transverse amplitude closing the circular-field hodograph.

    The apex curve closes when the rotating-frame precession rate is
    commensurate with the drive: Omega = |y/x| * omega, i.e.
    h = sqrt(y^2 omega^2 / x^2 - (H - omega)^2).  Returns None when the
    radicand is negative (no real amplitude for that pair).
    """
    if x == 0:
        raise ValueError("x must be nonzero")
    radicand = (y * omega / x) ** 2 - (H - omega) ** 2
    if radicand < 0.0:
        return None
    return math.sqrt(radicand)
