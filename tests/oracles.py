"""Independent right-hand sides of both systems, written from the equations
of motion as printed, not from the generator stacks.

The package integrates and differentiates through `make_bloch_rhs`,
`make_qutrit_rhs_real` and the stacks of `bloch_generators` /
`qutrit_generators`; the tests compare those against these oracles.
"""

import numpy as np

from spinhodo.qubit import field_at
from spinhodo.qutrit import qutrit_hamiltonian


def bloch_rhs(t, R, fp, dp):
    """dR/dt = h(t) x R - (gamma2 R1, gamma2 R2, gamma1 (R3 - r_eq)), a 3-array."""
    h1, h2, h3 = field_at(t, fp)
    return np.array([
        h2 * R[2] - h3 * R[1] - dp.gamma2 * R[0],
        h3 * R[0] - h1 * R[2] - dp.gamma2 * R[1],
        h1 * R[1] - h2 * R[0] - dp.gamma1 * (R[2] - dp.r_eq),
    ])


def qutrit_rhs(t, rho, fp, ap):
    """Unitary Liouville derivative -i [H(t), rho] (Hermitian, traceless)."""
    H = qutrit_hamiltonian(t, fp, ap)
    return -1j * (H @ rho - rho @ H)
