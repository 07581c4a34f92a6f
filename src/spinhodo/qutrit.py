"""Spin-1 dynamics: anisotropic Hamiltonian, unitary evolution of the
generalized 8-component coherence vector, level populations, polarization
direction, and the exact resonance solution.

The density matrix is expanded as rho = E/3 + (1/3) sum_a q_a L_a over a
fixed Hermitian basis with Tr(L_a L_b) = 3 delta_ab.  The first three
elements are the (scaled) spin components; the quadrupole elements are
ordered and signed so that the exact resonance solution comes out
component-for-component (a calibration test pins this down).  A pure state
has |q| = sqrt(2).

In this basis the Liouville equation rho' = -i[H, rho] is the real linear
system q' = M(t) q.  Every term of H is a constant operator times a scalar,
so M(t) is the same combination of fixed 8x8 generators, built once at
import; each generator is antisymmetric, which conserves |q|.
make_qutrit_rhs_real is the qubit module's linear_rhs over that stack.
"""

import math
from dataclasses import dataclass

import numpy as np

from .integrator import integrate
from .qubit import field_at, linear_rhs

__all__ = [
    "S1", "S2", "S3", "LAMBDA8", "AnisotropyParams",
    "qutrit_hamiltonian", "make_qutrit_rhs_real", "qutrit_generators",
    "qutrit_energy", "bloch8_from_density", "populations",
    "polarization_series", "analytic_qutrit_resonance",
    "closed_trajectory_amplitude_qutrit", "evolve_density",
    "initial_density_north", "two_photon_frequency",
]

_SQRT2 = math.sqrt(2.0)
_SQRT32 = math.sqrt(1.5)
# below this f of the resonance closed form, f**2 leaves the normal range;
# the couplings are then so weak that the frozen initial vector is exact to
# rounding for any |t| below 1e100
_F_FROZEN = 1e-150
_SPIN_FLOOR = 1e-9     # a spin part of q shorter than this has no direction

# spin-1 matrices, ladder normalization, basis (m = +1, 0, -1)
S1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQRT2
S2 = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQRT2
S3 = np.diag([1.0, 0.0, -1.0]).astype(complex)
_E3 = np.eye(3, dtype=complex)
_QUAD_Q = S3 @ S3 - (2.0 / 3.0) * _E3          # axial anisotropy operator
_QUAD_D = S1 @ S1 - S2 @ S2                     # transverse (two-quantum) operator

# Hermitian expansion basis; Tr(L_a L_b) = 3 delta_ab.
LAMBDA8 = np.stack([
    _SQRT32 * S1,
    _SQRT32 * S2,
    _SQRT32 * S3,
    _SQRT32 * (S1 @ S2 + S2 @ S1),
    _SQRT32 * (S2 @ S3 + S3 @ S2),
    np.diag([1.0, -2.0, 1.0]).astype(complex) / _SQRT2,
    _SQRT32 * (S1 @ S3 + S3 @ S1),
    _SQRT32 * _QUAD_D,
])

# The operators multiplying h1, h2, h3, Q and d in the Hamiltonian.
_OPS = np.stack([S1, S2, S3, _QUAD_Q, _QUAD_D])
# Generator of each: rho' = -i[A, rho] is q' = G q with
# G_ab = Tr(-i[A, L_b] L_a)/3 = (T_ab - T_ba)/3, T_ab = Tr(-i A L_b L_a),
# so every G is antisymmetric in floating point too.
_GEN = np.einsum('xij,bjk,aki->xab', -1j * _OPS, LAMBDA8, LAMBDA8).real
_GEN = (_GEN - _GEN.transpose(0, 2, 1)) / 3.0
# Tr(L_a A) of each operator: H = sum_x w_x A_x has Tr(L_a H) = w . _TRACES.
_TRACES = np.einsum('aij,xji->xa', LAMBDA8, _OPS).real


@dataclass(frozen=True)
class AnisotropyParams:
    """Axial (Q) and transverse (d) anisotropy constants, frequency units."""

    Q: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.Q) and math.isfinite(self.d)):
            raise ValueError("anisotropy constants must be finite")


def initial_density_north():
    """Pure m=+1 state diag(1, 0, 0)."""
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def qutrit_hamiltonian(t, fp, ap):
    """3x3 Hermitian Hamiltonian h_i(t) S_i + Q-term + d-term."""
    h1, h2, h3 = field_at(t, fp)
    return h1 * S1 + h2 * S2 + h3 * S3 + ap.Q * _QUAD_Q + ap.d * _QUAD_D


def qutrit_generators(fp, ap):
    """The coherence-vector equation as q' = M(t) q + b, for
    :func:`~spinhodo.qubit.eom_jets`.

    M(t) = (Q G_Q + d G_D) + cn h1 G1 + sn h2 G2 + dn H G3 at the drive
    argument omega t; the evolution is unitary, so b = 0.  Returns the stack,
    shape (4, 8, 8), and b, shape (8,).
    """
    g1, g2, g3, gq, gd = _GEN
    return np.stack([ap.Q * gq + ap.d * gd, fp.h1 * g1, fp.h2 * g2, fp.H * g3]), np.zeros(8)


def make_qutrit_rhs_real(fp, ap):
    """Right-hand side rhs(t, q) of the unitary evolution q' = M(t) q (dim 8):
    :func:`~spinhodo.qubit.linear_rhs` over the stack of
    :func:`qutrit_generators`."""
    return linear_rhs(fp, *qutrit_generators(fp, ap))


def qutrit_energy(q, fields, ap):
    """Mean energy Tr(rho H) of coherence vector(s) q in drive field(s) h.

    Every term of H is traceless, so Tr(rho H) = q . c / 3 with
    c_a = Tr(L_a H).  Takes q of shape (8,) or (n, 8) with fields of shape
    (3,) or (n, 3), as returned by :func:`field_at`.
    """
    c = np.asarray(fields) @ _TRACES[:3] + ap.Q * _TRACES[3] + ap.d * _TRACES[4]
    return np.einsum('...a,...a->...', q, c) / 3.0


def bloch8_from_density(rho):
    """Generalized coherence vector q_a = Tr(rho L_a), shape (8,)."""
    q = np.einsum('ij,aji->a', rho, LAMBDA8)
    if np.max(np.abs(q.imag)) > 1e-9:
        raise ValueError("density matrix is not Hermitian enough for a real q")
    return q.real


def _populations(q3, q6):
    """Level populations (m = +1, 0, -1) stacked along a new first axis, with
    no range check: the CLI records the drift of integrated states, which at
    a loose SPINHODO_TOL leaves [0, 1] by more than the check allows."""
    r6q3 = math.sqrt(6.0) * np.asarray(q3, dtype=float)
    r2q6 = _SQRT2 * np.asarray(q6, dtype=float)
    return np.stack([(2.0 + r6q3 + r2q6) / 6.0,
                     (1.0 - r2q6) / 3.0,
                     (2.0 - r6q3 + r2q6) / 6.0])


def populations(q3, q6):
    """Level populations (m = +1, 0, -1) from the two diagonal components.

    Takes scalars or arrays of one shape and returns the populations stacked
    along a new first axis, shape (3,) + shape; they sum to one identically.
    Raises ValueError when one lies outside [0, 1] by more than 1e-9.
    """
    p = _populations(q3, q6)
    outside = (p < -1e-9) | (p > 1.0 + 1e-9)
    if outside.any():
        raise ValueError(f"population {p[outside][0]} outside [0, 1]: inconsistent q input")
    return p


def polarization_series(qs):
    """Unit polarization q_{1..3}/|q_{1..3}| for each row of an (n, 8) array;
    NaN where the spin part is too short to define a direction."""
    qs = np.asarray(qs, dtype=float)
    spin = qs[:, :3]
    n = np.linalg.norm(spin, axis=1)
    out = np.full_like(spin, np.nan)
    ok = n > _SPIN_FLOOR
    out[ok] = spin[ok] / n[ok, None]
    return out


def analytic_qutrit_resonance(t, h, Q, omega):
    """Exact 8-component coherence vector at resonance (drive frequency equal
    to the longitudinal field), axial anisotropy only, north-pole start.

    f = sqrt(4 h^2 + Q^2) sets the beat structure; f = 0 (and any f below
    1e-150) returns the frozen initial vector (nothing couples).  Accepts
    scalar or array t.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    f = math.hypot(2.0 * h, Q)
    if f < _F_FROZEN:
        q = np.zeros(t_arr.shape + (8,))
        q[..., 2] = _SQRT32
        q[..., 5] = 1.0 / _SQRT2
        return q[0] if np.ndim(t) == 0 else q

    sf, cf = np.sin(f * t_arr / 2.0), np.cos(f * t_arr / 2.0)
    sq, cq = np.sin(Q * t_arr / 2.0), np.cos(Q * t_arr / 2.0)
    sw, cw = np.sin(omega * t_arr), np.cos(omega * t_arr)
    s2w, c2w = np.sin(2.0 * omega * t_arr), np.cos(2.0 * omega * t_arr)
    r6h = math.sqrt(6.0) * h

    q1 = r6h * sf / f**2 * (f * cq * sw + Q * sf * cw)
    q2 = r6h * sf / f**2 * (Q * sf * sw - f * cq * cw)
    q3 = _SQRT32 * (Q * sf * sq / f + cf * cq)
    q4 = _SQRT32 / f**2 * (-2.0 * h * h * sf * sf * s2w
                           + (f * f * cf * sq - f * Q * sf * cq) * c2w)
    q5 = r6h * sf / f * (sq * sw - cf * cw)
    q6 = (h * h + Q * Q + 3.0 * h * h * np.cos(f * t_arr)) / (_SQRT2 * f**2)
    q7 = r6h * sf / f * (cf * sw + sq * cw)
    q8 = _SQRT32 / f**2 * (f * (Q * sf * cq - f * cf * sq) * s2w
                           - 2.0 * h * h * sf * sf * c2w)

    q = np.stack([q1, q2, q3, q4, q5, q6, q7, q8], axis=-1)
    return q[0] if np.ndim(t) == 0 else q


def closed_trajectory_amplitude_qutrit(x, y, Q, d=0.0, sign=1.0):
    """Transverse amplitude for a closed hodograph at commensurate (x, y).

    h + sqrt(2) d = +- sqrt(y^2 - x^2) Q / (2 x); d = 0 recovers the pure
    axial-anisotropy condition.
    """
    if x == 0:
        raise ValueError("x must be nonzero")
    if y * y < x * x:
        raise ValueError("no real amplitude: |y| < |x|")
    return sign * math.sqrt(y * y - x * x) * Q / (2.0 * x) - _SQRT2 * d


def evolve_density(fp, ap, rho0, t_final, n_out):
    """Integrate the unitary evolution onto n_out uniform times; return
    (times, rhos, trajectory).

    The integrated state is the coherence vector: the trajectory's states
    are q, shape (n, 8), from the integrator's dense output.  Each output
    density is rebuilt from it as rho = (Tr(rho0) E + sum_a q_a L_a)/3,
    Hermitian by construction.
    """
    traj = integrate(make_qutrit_rhs_real(fp, ap), bloch8_from_density(rho0),
                     (0.0, t_final), n_out=n_out)
    rhos = (np.trace(rho0).real * _E3 + np.einsum('na,aij->nij', traj.states, LAMBDA8)) / 3.0
    return traj.times, rhos, traj


def two_photon_frequency(times, p_minus):
    """Angular frequency of the slow population-transfer beat.

    Takes the lowest-frequency prominent line (>= half the tallest peak) of
    the detrended m=-1 population spectrum; that line is the two-photon
    transition frequency between the m = +1 and m = -1 levels.
    """
    times = np.asarray(times, dtype=float)
    y = np.asarray(p_minus, dtype=float)
    dt = times[1] - times[0]
    window = np.hanning(len(y))   # tames leakage so the peak fit is unbiased
    amp = np.abs(np.fft.rfft((y - y.mean()) * window))
    freqs = 2.0 * math.pi * np.fft.rfftfreq(len(y), d=dt)
    amp[0] = 0.0
    floor = 0.5 * amp.max()
    # lowest local maximum that clears the prominence floor
    for i in range(1, len(amp) - 1):
        if amp[i] >= floor and amp[i] >= amp[i - 1] and amp[i] >= amp[i + 1]:
            # quadratic refinement around the bin
            denom = amp[i - 1] - 2 * amp[i] + amp[i + 1]
            shift = 0.0 if denom == 0 else 0.5 * (amp[i - 1] - amp[i + 1]) / denom
            return float(freqs[i] + shift * (freqs[1] - freqs[0]))
    raise ValueError("no prominent spectral line found")
