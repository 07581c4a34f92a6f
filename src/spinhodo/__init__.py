"""spinhodo: numerical laboratory for spin magnetic-resonance dynamics.

Evolves the coherence (generalized Bloch) vector of a qubit or qutrit in
time-dependent magnetic fields, evaluates the exact solutions as oracles,
and characterizes the apex trajectory on the unit sphere by curvature,
torsion, speed, arc length, and precession/nutation rates.
"""

__version__ = "0.1.0"

from .elliptic import complete_k, incomplete_e, jacobi_sncndn
from .geometry import (adjoining_sphere_residual, angular_velocities,
                       count_torsion_sign_changes, detect_cusps, detect_loops,
                       frenet_geometry, resonance_geometry)
from .integrator import IntegratorConfig, Trajectory, integrate, resample_uniform
from .qubit import (DampingParams, FieldMode, FieldParams, InitialAngles,
                    analytic_elliptic_resonance, analytic_rabi_general,
                    bloch_generators, closed_trajectory_amplitude_qubit,
                    eom_jets, field_at, linear_rhs, make_bloch_rhs, qubit_energy)
from .qutrit import (AnisotropyParams, analytic_qutrit_resonance,
                     bloch8_from_density, closed_trajectory_amplitude_qutrit,
                     evolve_density, populations, qutrit_generators,
                     qutrit_hamiltonian, two_photon_frequency)

__all__ = [
    "__version__",
    "jacobi_sncndn", "complete_k", "incomplete_e",
    "IntegratorConfig", "Trajectory", "integrate", "resample_uniform",
    "FieldMode", "FieldParams", "DampingParams", "InitialAngles",
    "field_at", "make_bloch_rhs", "bloch_generators", "linear_rhs", "eom_jets",
    "analytic_rabi_general", "analytic_elliptic_resonance",
    "qubit_energy", "closed_trajectory_amplitude_qubit",
    "AnisotropyParams", "qutrit_hamiltonian", "qutrit_generators",
    "bloch8_from_density", "populations",
    "analytic_qutrit_resonance", "closed_trajectory_amplitude_qutrit",
    "evolve_density", "two_photon_frequency",
    "angular_velocities", "frenet_geometry",
    "resonance_geometry", "adjoining_sphere_residual", "detect_cusps",
    "detect_loops", "count_torsion_sign_changes",
]
