"""Figure presets: drive parameters, initial states, durations, and the
published ranges each run is compared against.

Check policies (pinned):
  * scalar arc length            - 5% relative;
  * speed / angle-rate / flip-probability range endpoints - within 5% of
    max(|endpoint|, range span), since printed endpoints carry the plot's
    sampling resolution;
  * curvature / torsion extrema  - within a factor of two (spikes at cusps
    are discretization-limited);
  * event counts                 - exact.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from .qubit import DampingParams, FieldParams, InitialAngles
from .qutrit import AnisotropyParams

__all__ = ["FigurePreset", "PRESETS", "check_caption_value", "CHECK_POLICY"]

_ACOS_1_SQRT3 = math.acos(1.0 / math.sqrt(3.0))

# policy per reported quantity
CHECK_POLICY = {
    "arc_length": "rel5",
    "speed": "span5",
    "theta_dot": "span5",
    "phi_dot": "span5",
    "flip_probability": "span5",
    "curvature": "factor2",
    "torsion": "factor2",
    "torsion_sign_changes": "exact",
}


@dataclass(frozen=True)
class FigurePreset:
    name: str
    system: str                        # 'qubit' | 'qutrit'
    fieldp: FieldParams
    duration: float
    init: Optional[InitialAngles] = None
    damping: DampingParams = DampingParams()
    aniso: Optional[AnisotropyParams] = None
    points_per_period: int = 2000
    n_periods: float = 1.0
    expected: Dict[str, object] = field(default_factory=dict)

    @property
    def n_output(self):
        return int(round(self.points_per_period * self.n_periods)) + 1


def _qubit_preset(name, theta0, phi0, omega, H, h, n_periods, expected, ppp=2000,
                  linear=False, duration=None):
    fp = FieldParams.linear(h, H, omega) if linear else FieldParams.circular(h, H, omega)
    if duration is None:
        Om = math.hypot(H - omega, h)
        duration = n_periods * 2.0 * math.pi / Om
    return FigurePreset(name, "qubit", fp, duration,
                        init=InitialAngles(theta0, phi0),
                        points_per_period=ppp, n_periods=n_periods, expected=expected)


def _qutrit_preset(name, expected, ppp=2000):
    Q, h = 1.0, 3.0 / 8.0             # commensurate pair x=4, y=5
    f = math.hypot(2.0 * h, Q)
    duration = 10.0 * 2.0 * math.pi / f
    fp = FieldParams.circular(h, 0.0, 0.0)
    return FigurePreset(name, "qutrit", fp, duration,
                        aniso=AnisotropyParams(Q=Q, d=0.0),
                        points_per_period=ppp, n_periods=10.0, expected=expected)


PRESETS = {p.name: p for p in [
    _qubit_preset("fig1", _ACOS_1_SQRT3, 0.0, 3.0, 0.45, -0.6, 1, {}),
    _qubit_preset("fig2", _ACOS_1_SQRT3, 0.0, 3.0, 0.45, -0.6, 7, {
        "flip_probability": (0.06, 0.211),
        "arc_length": 10.44,
    }),
    _qubit_preset("fig3", _ACOS_1_SQRT3, math.pi / 4.0, 3.0, 0.5, 0.6, 6, {
        "flip_probability": (0.19, 0.4),
        "speed": (0.015, 0.78),
        "phi_dot": (-0.02, 0.67),
        "theta_dot": (-0.6, 0.6),
        "curvature": (1.0, 8500.0),
        "torsion": (-1550.0, 1550.0),
        "arc_length": 8.6,
    }, ppp=4000),
    _qubit_preset("fig4", math.pi, 3.0 * math.pi / 4.0, 0.5, 0.05, 0.5, 4, {
        "speed": (0.005, 0.5),
        "curvature": (1.5, 25000.0),
        "torsion": (-20.0, 20.0),
        "phi_dot": (-0.003, 0.28),
        "theta_dot": (-0.5, 0.5),
        "flip_probability": (0.45, 1.0),
        "arc_length": 14.0,
    }, ppp=4000),
    _qubit_preset("fig5", 0.0, math.pi / 4.0, 0.2, 0.2, 0.5, 1, {
        "flip_probability": (0.0, 1.0),
        "speed": (0.5, 0.54),
        "curvature": (1.0, 1.28),
        "torsion": (-0.64, 0.64),
        "arc_length": 6.53,
    }),
    _qubit_preset("fig6", 0.0, math.pi / 4.0, 5.0, 5.0, 0.5, 1, {
        "flip_probability": (0.0, 1.0),
        "speed": (0.47, 5.02),
        "curvature": (1.0, 20.0),
        "torsion": (-0.55, 0.55),
        "arc_length": 40.84,
    }),
    _qubit_preset("fig7", _ACOS_1_SQRT3, math.pi / 4.0, 3.0, 0.5, 0.6, 6, {
        "speed": (0.14, 0.77),
        "curvature": (1.0, 22.0),
        "torsion": (-200.0, 350.0),
        "phi_dot": (0.08, 0.87),
        "theta_dot": (-0.58, 0.6),
        "flip_probability": (0.14, 0.3),
        "arc_length": 6.44,
    }, linear=True, duration=14.66),
    _qutrit_preset("fig8", {}),
    _qutrit_preset("fig9", {}),
    _qutrit_preset("fig10", {
        "curvature": (0.005, 29.0),
        "arc_length": 22.13,
        "torsion_sign_changes": 28,
    }),
]}


def check_caption_value(quantity, expected, observed):
    """Compare one observed quantity against its caption value.

    Returns (passed, detail) where detail is a per-endpoint breakdown for
    ranges.  `expected` is a scalar, an int count, or a (lo, hi) pair.
    """
    policy = CHECK_POLICY[quantity]
    if policy == "rel5":
        ok = abs(observed - expected) <= 0.05 * abs(expected)
        return ok, {"expected": expected, "observed": observed, "policy": policy}
    if policy == "exact":
        ok = int(observed) == int(expected)
        return ok, {"expected": expected, "observed": observed, "policy": policy}

    lo, hi = expected
    obs_lo, obs_hi = observed
    detail = {"expected": [lo, hi], "observed": [obs_lo, obs_hi], "policy": policy}
    if policy == "span5":
        tol = 0.05 * max(abs(lo), abs(hi), hi - lo)
        ok = abs(obs_lo - lo) <= tol and abs(obs_hi - hi) <= tol
        detail["tolerance"] = tol
        return ok, detail
    # factor2: each endpoint within a factor of two in magnitude, same sign
    def _f2(obs, cap):
        if cap == 0.0:
            return abs(obs) <= 1e-9
        if obs * cap < 0.0:
            return False
        return 0.5 * abs(cap) <= abs(obs) <= 2.0 * abs(cap)

    ok = _f2(obs_lo, lo) and _f2(obs_hi, hi)
    return ok, detail
