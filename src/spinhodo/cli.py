"""Command-line front end: figure presets, free-form simulation runs,
closed-trajectory search, and CSV/JSON/plot-script export.

Artifacts per run: trajectory.csv (state + per-sample diagnostics),
geometry.csv (diagnostics only), report.json (observed ranges, events,
caption comparison), plot.gp (gnuplot script over the CSVs).  All numbers
are emitted with 17 significant digits; runs are fully deterministic.

A resonant qubit drive (h1 = h2, H = omega != 0) is integrated in the
co-rotating frame, where it is static, and every artifact is in the lab
frame; report.json names the frame of the solve (`integrator.frame`).
"""

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .elliptic import complete_k, sncndn_of
from .geometry import (count_torsion_sign_changes, detect_cusps, detect_loops,
                       frenet_geometry)
from .integrator import IntegratorConfig, integrate, resample_uniform
from .presets import PRESETS, check_caption_value
from .qubit import (DampingParams, FieldMode, FieldParams, InitialAngles,
                    analytic_elliptic_resonance, analytic_rabi_general,
                    bloch_generators, closed_trajectory_amplitude_qubit,
                    eom_jets, field_at, make_bloch_rhs, qubit_energy)
from .qutrit import (AnisotropyParams, _populations, analytic_qutrit_resonance,
                     bloch8_from_density, closed_trajectory_amplitude_qutrit,
                     initial_density_north, make_qutrit_rhs_real,
                     polarization_series, qutrit_energy, qutrit_generators)

__all__ = ["run_preset", "simulate", "closure_search", "main", "UnsupportedAnalytic"]

_POINTS_PER_PERIOD = 2000   # output samples per natural period of a free run
_MAX_SAMPLES = 1_000_001    # grid of a free run: 500 periods, about 0.4 GB in memory


class UnsupportedAnalytic(ValueError):
    """Requested --analytic outside the validity domain of the closed forms."""


def default_config():
    """Default tolerances, overridable through SPINHODO_TOL."""
    tol = os.environ.get("SPINHODO_TOL")
    if tol:
        rel = float(tol)
        return IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-2)
    return IntegratorConfig()


# ----------------------------------------------------------------- running
#
# Both systems simulate into one record: the solve (`traj`, its states in
# the lab frame), the `frame` it was integrated in, the lab-frame equation
# of motion `eom`, as (drive, generator stack, constant term) for eom_jets,
# the unit direction `p` drawn on the hodograph (that of the first three
# state components in both systems), the drive `fields`, the state and
# system-specific columns of trajectory.csv in file order, and the
# system-specific observed ranges in report order.

def _range(x):
    """[min, max] of a series; NaN marks undefined samples and is skipped."""
    return [float(np.nanmin(x)), float(np.nanmax(x))]


def _simulate_qubit(fp, dp, init, duration, cfg, n_out):
    """A resonant drive with h1 = h2 and omega != 0 is solved in the
    co-rotating frame of the qubit module, where it is the static
    (h1, 0, 0), and the grid is turned back to the lab frame; every other
    drive is solved in the lab frame."""
    corotating = fp.h1 == fp.h2 and fp.H == fp.omega != 0.0
    solved = FieldParams.circular(fp.h1, 0.0, 0.0) if corotating else fp
    traj = integrate(make_bloch_rhs(solved, dp), init.bloch(), (0.0, duration), cfg,
                     n_out=n_out)
    if corotating:
        sn, cn, _ = sncndn_of(fp.k)(fp.omega * traj.times)
        u1, u2, u3 = traj.states.T
        traj.states = np.stack([cn * u1 - sn * u2, sn * u1 + cn * u2, u3], axis=1)
    R = traj.states
    lengths = np.linalg.norm(R, axis=1)
    if np.min(lengths) < 1e-12:
        raise RuntimeError("coherence vector collapsed to zero; no direction")
    fields = field_at(traj.times, fp)
    flip = (1.0 - R[:, 2]) / 2.0
    return {
        "traj": traj, "frame": "corotating" if corotating else "lab",
        "p": R / lengths[:, None], "fields": fields,
        "eom": (fp, *bloch_generators(fp, dp)),
        "state_columns": {f"R{i + 1}": R[:, i] for i in range(3)},
        "extra_columns": {"P": flip, "E": qubit_energy(R, fields)},
        "extra_observed": {"flip_probability": _range(flip),
                           "bloch_length": _range(lengths)},
    }


def _simulate_qutrit(fp, ap, duration, cfg, n_out):
    if fp.h1 == 0.0 and fp.h2 == 0.0:
        raise ValueError("a qutrit run needs a nonzero transverse amplitude h: with "
                         "h = 0 the spin part of q stays on the z axis, so there is "
                         "no hodograph")
    traj = integrate(make_qutrit_rhs_real(fp, ap),
                     bloch8_from_density(initial_density_north()), (0.0, duration), cfg,
                     n_out=n_out)
    qs = traj.states
    p = polarization_series(qs)
    if np.any(~np.isfinite(p)):
        raise RuntimeError("polarization direction undefined on the grid "
                           "(spin part of q vanished)")
    pops = dict(zip(("p_plus", "p_zero", "p_minus"), _populations(qs[:, 2], qs[:, 5])))
    fields = field_at(traj.times, fp)
    return {
        "traj": traj, "frame": "lab", "p": p, "fields": fields,
        "eom": (fp, *qutrit_generators(fp, ap)),
        "state_columns": {f"q{i + 1}": qs[:, i] for i in range(8)},
        "extra_columns": {"P_plus": pops["p_plus"], "P_zero": pops["p_zero"],
                          "P_minus": pops["p_minus"], "E": qutrit_energy(qs, fields, ap)},
        "extra_observed": {"populations": {k: _range(v) for k, v in pops.items()},
                           "q_length": _range(np.linalg.norm(qs, axis=1))},
    }


def _observed_ranges(sim, series):
    ok = series.valid
    ang = ~series.pole
    return {
        "speed": _range(series.speed),
        "curvature": _range(series.curvature[ok]),
        "torsion": _range(series.torsion[ok]),
        "theta_dot": _range(series.theta_dot[ang]),
        "phi_dot": _range(series.phi_dot[ang]),
        "arc_length": float(series.arc_length[-1]),
        "energy": _range(sim["extra_columns"]["E"]),
        **sim["extra_observed"],
    }


def _events(sim, series):
    cusps = detect_cusps(series)
    loops = detect_loops(sim["traj"].times, sim["p"])
    flips = count_torsion_sign_changes(series.torsion[series.valid])
    return {
        "cusps": [{"t": c.t, "speed": c.speed, "curvature": c.curvature} for c in cusps],
        "loop_count": len(loops),
        "loop_pairs": [[e.t_a, e.t_b] for e in loops[:32]],
        "torsion_sign_changes": flips,
    }


def _caption_checks(expected, obs, events):
    checks = []
    for quantity, cap in expected.items():
        if quantity == "torsion_sign_changes":
            observed = events["torsion_sign_changes"]
        elif quantity == "arc_length":
            observed = obs["arc_length"]
        else:
            observed = tuple(obs[quantity])
        passed, detail = check_caption_value(quantity, cap, observed)
        checks.append({"quantity": quantity, "passed": bool(passed), **detail})
    return checks


def _analyze(sim, expected=None):
    traj = sim["traj"]
    series = frenet_geometry(traj.times, traj.states[:, :3],
                             *eom_jets(*sim["eom"], traj.times, traj.states))
    if not series.valid.any():
        raise ValueError("the direction never moves (its speed is below the floor on "
                         "every sample), so there is no hodograph")
    obs = _observed_ranges(sim, series)
    ev = _events(sim, series)
    checks = _caption_checks(expected, obs, ev) if expected else None
    return series, obs, ev, checks


# ----------------------------------------------------------------- artifacts
#
# A CSV cell is the bytes of "%.17g" % x, made by numpy on whole blocks.  A
# cell is 30 byte slots, held slot-major, shape (30, n), so that every
# operation runs along the cells:
#
#   0       sign
#   1-5     the "0.000" prefix of fixed notation below 1
#   6-23    17 digits and the decimal point, which sits at slot 6 + dp
#   24-28   "e", the exponent's sign and three digits
#   29      the separator, filled by the caller
#
# A keep-mask zeroes the slots a cell does not use; the writer transposes a
# block to file order and deletes the NUL bytes, which no cell contains.
#
# The digits are D = round(|x| 10^(16-X)), X = floor(log10 |x|), from a
# double-double product.  A cell whose rounding that cannot certify is
# formatted by Python instead: |x| outside [1e-260, 1e260], a scaled value
# within 1e-6 of a tie, or an exponent still out of range after one
# correction.  That is Grisu3's certify-or-fall-back scheme (Loitsch,
# "Printing floating-point numbers quickly and accurately with integers",
# PLDI 2010).

_CSV_BLOCK_ROWS = 256   # rows per block: its temporaries, 2.3 MB at 27 columns, set the peak
_FLAG_BYTES = np.frombuffer(b"0,0\n0,1\n1,0\n1,1\n", np.uint8).reshape(4, 4)  # by 2 valid + pole
_SLOTS, _MANTISSA, _EXPONENT, _SEPARATOR = 30, 6, 24, 29
_FAST_MIN, _FAST_MAX = 1e-260, 1e260
_K_MIN, _K_MAX = -245, 278        # 10^k for k = 16 - X, X in [-262, 261]
_TIE_BAND = 1e-6                  # |f| this near 1/2 may be a tie: Python decides it
_SPLIT = 134217729.0              # 2^27 + 1, Dekker's splitter
_E16, _E17 = 10 ** 16, 10 ** 17


def _pow10(k):
    """(hi, lo): 10^k = hi + lo to about 2^-106, from exact integers."""
    if k >= 0:
        hi = float(10 ** k)
        return hi, float(10 ** k - int(hi))
    e = 10 ** -k
    hi = 1 / e
    num, den = hi.as_integer_ratio()
    return hi, (den - num * e) / (den * e)


@functools.cache
def _format_tables():
    """The 4-digit chunks "0000".."9999" as packed uint32, and the split
    powers of ten, one column per k; built on the first write, so that
    importing stays cheap."""
    i = np.arange(10000)
    chunks = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], 1) + ord("0")
    hi, lo = np.array([_pow10(k) for k in range(_K_MIN, _K_MAX + 1)]).T
    t = _SPLIT * hi
    hi_hi = t - (t - hi)
    return chunks.astype(np.uint8).view(np.uint32).ravel(), np.stack([hi, hi_hi, hi - hi_hi, lo])


def _chunk_bytes(chunks, c):
    """The 4 ASCII digits of each 0 <= c < 10000, shape (len(c), 4)."""
    return np.take(chunks, c).view(np.uint8).reshape(-1, 4)


def _scaled(ax, k, pow10):
    """ax 10^k as D + f, D the nearest integer (int64) and |f| <= 1/2.

    ax * hi is taken exactly as p + err (Dekker), ax * lo is added to err;
    valid for ax in [1e-260, 1e260] and k in [_K_MIN, _K_MAX]."""
    hi, hi_hi, hi_lo, lo = np.take(pow10, k - _K_MIN, axis=1)
    p = ax * hi
    t = _SPLIT * ax
    ax_hi = t - (t - ax)
    ax_lo = ax - ax_hi
    err = ((ax_hi * hi_hi - p) + ax_hi * hi_lo + ax_lo * hi_hi) + ax_lo * hi_lo
    whole = np.rint(p)
    r = (p - whole) + (err + ax * lo)
    carry = np.rint(r)
    return whole.astype(np.int64) + carry.astype(np.int64), r - carry


def _g17_slots(x):
    """The cells "%.17g" % v of the float64 array `x`, as uint8 slots of
    shape (30, len(x)), NUL where a cell has no byte (see the layout above);
    slot 29 is left NUL for the separator."""
    chunks, pow10 = _format_tables()
    n = len(x)
    ax = np.abs(x)
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)     # False for 0, nan, inf
    ax = np.where(fast, ax, 1.0)
    X = np.floor(np.log10(ax)).astype(np.int64)
    D, f = _scaled(ax, 16 - X, pow10)
    # log10 may put X one off near a power of ten.  Decide that on the
    # unrounded D + f: below 1e16 X is too high (the double nearest 1e-12
    # scales to 9999999999999999.8 at X = -12), from 1e17 + 1/2 too low
    low = (D < _E16) | ((D == _E16) & (f < 0))
    redo = np.flatnonzero(low | (D > _E17))
    if redo.size:
        X[redo] += np.where(low[redo], -1, 1)
        D[redo], f[redo] = _scaled(ax[redo], 16 - X[redo], pow10)
    carry = D == _E17              # rounds up into the next decade
    D[carry] = _E16
    X[carry] += 1
    fast &= (D >= _E16) & (D < _E17) & (np.abs(np.abs(f) - 0.5) >= _TIE_BAND)
    D = np.where(fast, D, 0)       # zero prints as "0"; the rest is overwritten
    X = np.where(fast, X, 0)

    # the 17 digits, rows 1-17 of `digits`; rows 0 and 18 pad the shift below
    digits = np.zeros((19, n), np.uint8)
    c0 = D // _E16
    digits[1] = c0 + ord("0")
    rest = D - c0 * _E16
    upper = rest // 10 ** 8
    lower = rest - upper * 10 ** 8
    c1 = upper // 10 ** 4
    c3 = lower // 10 ** 4
    cs = (c1, upper - c1 * 10 ** 4, c3, lower - c3 * 10 ** 4)
    for row, c in zip((2, 6, 10, 14), cs):
        digits[row:row + 4] = _chunk_bytes(chunks, c).T
    # the digits up to the last nonzero one (none for D = 0)
    significant = np.max(np.arange(1, 18, dtype=np.uint8)[:, None] * (digits[1:18] != ord("0")),
                         axis=0)

    # fixed notation for -4 <= X < 17; below 1 the digits follow "0.000"
    # and the point (dp = 17) is never kept
    fixed = (X >= -4) & (X < 17)
    whole = fixed & (X >= 0)
    dp = np.where(whole, X + 1, np.where(fixed, 17, 1)).astype(np.uint8)
    kept = np.where(whole, np.maximum(significant, X + 1), significant).astype(np.uint8)
    kept += kept > dp              # the point, where a digit follows it
    prefix = np.where(fixed & (X < 0), 1 - X, 0).astype(np.uint8)

    chars = np.empty((_SLOTS, n), np.uint8)
    keep = np.empty((_SEPARATOR, n), bool)
    chars[0] = ord("-")
    keep[0] = np.signbit(x)
    chars[1:_MANTISSA] = np.frombuffer(b"0.000", np.uint8)[:, None]
    keep[1:_MANTISSA] = np.arange(5, dtype=np.uint8)[:, None] < prefix
    # slot j of the mantissa holds digit j before the point, j - 1 after it
    j = np.arange(18, dtype=np.uint8)[:, None]
    before, after = digits[1:], digits[:-1]
    chars[_MANTISSA:_EXPONENT] = before ^ ((before ^ after) * (j > dp).view(np.uint8))
    chars.reshape(-1)[(_MANTISSA + dp.astype(np.intp)) * n + np.arange(n)] = ord(".")
    keep[_MANTISSA:_EXPONENT] = j < kept
    sci = ~fixed
    aX = np.abs(X)
    chars[24] = ord("e")
    chars[25] = ord("+") + 2 * (X < 0).view(np.uint8)           # "-" is "+" + 2
    chars[26:29] = _chunk_bytes(chunks, aX)[:, 1:].T
    keep[24:29] = sci
    keep[26] &= aX >= 100
    chars[:_SEPARATOR] *= keep
    chars[_SEPARATOR] = 0

    # nan and inf are looked up; Python formats what the fast path declined
    other = np.flatnonzero(~fast & (x != 0))
    if other.size:
        v = x[other]
        text = np.array([b"nan", b"inf", b"-inf"], "S29")[np.where(np.isnan(v), 0, 1 + (v < 0))]
        finite = np.isfinite(v)
        text[finite] = ["%.17g" % a for a in v[finite].tolist()]
        chars[:_SEPARATOR, other] = text.view(np.uint8).reshape(-1, _SEPARATOR).T
    return chars


def _write_csvs(out, t, lead, shared, tail, valid, pole):
    """Write geometry.csv (t, shared, valid, pole) and trajectory.csv
    (t, lead, shared, tail) together, block by block.

    `lead`, `shared` and `tail` map column names to columns.  Each block
    formats the union of the columns once, row by row; geometry.csv takes
    t and the shared cells from the same slots, and the 0/1 flags are looked
    up, not formatted.
    """
    columns = [t, *lead.values(), *shared.values(), *tail.values()]
    first = 1 + len(lead)
    last = first + len(shared)
    flags = _FLAG_BYTES[2 * np.asarray(valid, dtype=int) + np.asarray(pole, dtype=int)]
    with open(out / "geometry.csv", "wb") as geo, open(out / "trajectory.csv", "wb") as traj:
        geo.write((",".join(["t", *shared, "valid", "pole"]) + "\n").encode())
        traj.write((",".join(["t", *lead, *shared, *tail]) + "\n").encode())
        for r0 in range(0, len(t), _CSV_BLOCK_ROWS):
            block = np.stack([col[r0:r0 + _CSV_BLOCK_ROWS] for col in columns], 1)
            rows = len(block)
            chars = _g17_slots(block.ravel())
            chars[_SEPARATOR] = ord(",")
            chars[_SEPARATOR, len(columns) - 1::len(columns)] = ord("\n")
            # (slot, cell) -> (row, column, slot): the cells in file order
            cells = np.ascontiguousarray(chars.T).reshape(rows, len(columns), _SLOTS)
            traj.write(cells.tobytes().translate(None, b"\0"))
            geo.write(np.concatenate([cells[:, 0], cells[:, first:last].reshape(rows, -1),
                                      flags[r0:r0 + rows]], 1).tobytes().translate(None, b"\0"))


def write_artifacts(out_dir, sim, series, report):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # the geometry columns carry the names of their FrenetSeries fields
    shared = {name: getattr(series, name) for name in
              ("theta", "phi", "theta_dot", "phi_dot", "curvature", "torsion",
               "speed", "arc_length")}
    p, fld = sim["p"], sim["fields"]
    _write_csvs(out, sim["traj"].times,
                {**sim["state_columns"], "p1": p[:, 0], "p2": p[:, 1], "p3": p[:, 2]},
                shared,
                {**sim["extra_columns"], "h1": fld[:, 0], "h2": fld[:, 1], "h3": fld[:, 2]},
                series.valid, series.pole)

    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2)

    script = f"""# gnuplot script emitted by spinhodo {__version__}
set datafile separator comma
set key autotitle columnhead noenhanced

set terminal pngcairo size 900,800
set output 'hodograph.png'
set view equal xyz
set xyplane at -1
splot 'trajectory.csv' using 'p1':'p2':'p3' with lines lw 1.5 title 'apex'

set output 'geometry.png'
set logscale y
plot 'geometry.csv' using 't':'curvature' with lines title 'curvature', \\
     'geometry.csv' using 't':'speed' with lines title 'speed'
unset logscale y

set output 'rates.png'
plot 'geometry.csv' using 't':'theta_dot' with lines title 'nutation rate', \\
     'geometry.csv' using 't':'phi_dot' with lines title 'precession rate', \\
     'geometry.csv' using 't':'torsion' with lines title 'torsion'
"""
    (out / "plot.gp").write_text(script)


# ----------------------------------------------------------------- commands

def _run(system, fp, dp, init, ap, duration, n_out, preset=None, expected=None):
    """Simulate, analyse and build the report; returns (sim, series, report)."""
    cfg = default_config()
    if system == "qubit":
        sim = _simulate_qubit(fp, dp, init, duration, cfg, n_out)
    elif system == "qutrit":
        sim = _simulate_qutrit(fp, ap, duration, cfg, n_out)
    else:
        raise ValueError(f"unknown system {system!r}")
    series, obs, ev, checks = _analyze(sim, expected)
    traj = sim["traj"]
    report = {
        "tool": f"spinhodo {__version__}",
        "preset": preset,
        "system": system,
        "parameters": _param_record(system, fp, dp, init, ap),
        "duration": duration,
        "n_samples": len(traj.times),
        "integrator": {
            "frame": sim["frame"],
            "rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol,
            "max_local_error": traj.max_error_estimate,
            "n_steps": traj.n_steps,
            "n_rejected": traj.n_rejected,
            "rhs_evals": traj.rhs_evals,
            "rhs_evals_per_sample": traj.rhs_evals / len(traj.times),
        },
        "observed": obs,
        "events": ev,
        "caption_checks": checks,
    }
    return sim, series, report


def run_preset(name, out_dir=None):
    """Run a figure preset; returns the report dict (and writes artifacts)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    preset = PRESETS[name]
    sim, series, report = _run(preset.system, preset.fieldp, preset.damping, preset.init,
                               preset.aniso, preset.duration, preset.n_output, name,
                               preset.expected)
    if out_dir is not None:
        write_artifacts(out_dir, sim, series, report)
    return report


def _param_record(system, fp, dp, init, ap):
    rec = {
        "mode": fp.mode.value, "h1": fp.h1, "h2": fp.h2, "H": fp.H,
        "omega": fp.omega, "modulus": fp.k,
        "gamma1": dp.gamma1, "gamma2": dp.gamma2, "r_eq": dp.r_eq,
    }
    if system == "qubit":
        rec["theta0"] = init.theta0
        rec["phi0"] = init.phi0
    else:
        rec["Q"] = ap.Q
        rec["d"] = ap.d
    return rec


def _analytic_reference(system, fp, dp, init, ap, times):
    """Closed-form states on `times`, or raise UnsupportedAnalytic."""
    if system == "qubit":
        if not dp.is_uniform:
            raise UnsupportedAnalytic("closed forms cover uniform damping "
                                      "(gamma1 = gamma2, r_eq = 0) only")
        gamma = dp.gamma1
        if fp.mode is FieldMode.CIRCULAR:
            return analytic_rabi_general(times, init, fp.h1, fp.H, fp.omega, gamma)
        if fp.mode is FieldMode.ELLIPTIC:
            if fp.detuning != 0.0 or init.theta0 != 0.0:
                raise UnsupportedAnalytic("elliptic-field closed form needs "
                                          "resonance and a north-pole start")
            return analytic_elliptic_resonance(times, fp.h1, fp.omega, fp.k, gamma)
        raise UnsupportedAnalytic("no closed form for a linearly polarized field")
    # qutrit
    if ap.d != 0.0:
        raise UnsupportedAnalytic("qutrit closed form requires d = 0")
    if fp.H != fp.omega:
        raise UnsupportedAnalytic("qutrit closed form requires resonance (H = omega)")
    if fp.mode is not FieldMode.CIRCULAR:
        raise UnsupportedAnalytic("qutrit closed form requires a circular field")
    return analytic_qutrit_resonance(times, fp.h1, ap.Q, fp.omega)


def simulate(system, fp, duration, out_dir=None, dp=None, init=None, ap=None,
             n_out=_POINTS_PER_PERIOD + 1, analytic=False):
    """Free-parameter run with the same artifact set as run_preset."""
    dp = dp or DampingParams()
    init = init or InitialAngles()
    ap = ap or AnisotropyParams()
    sim, series, report = _run(system, fp, dp, init, ap, duration, n_out)
    deviation = None
    if analytic:
        ref = _analytic_reference(system, fp, dp, init, ap, sim["traj"].times)
        deviation = float(np.max(np.abs(ref - sim["traj"].states)))
    report["analytic_max_deviation"] = deviation
    if out_dir is not None:
        write_artifacts(out_dir, sim, series, report)
    return report


def closure_search(system, x_max, y_max, omega=0.0, H=0.0, Q=1.0, d=0.0,
                   points_per_period=300):
    """Enumerate commensurate pairs, compute the closing amplitude, integrate
    one common period, and report the endpoint-start distance."""
    cfg = default_config()
    if system == "qubit":
        if omega == 0.0:
            raise ValueError("qubit closure search needs a nonzero drive frequency")
        y0 = InitialAngles(math.acos(1.0 / math.sqrt(3.0)), 0.0).bloch()
        scale = 1.0
    else:
        if Q == 0.0:
            raise ValueError("qutrit closure search needs a nonzero axial anisotropy Q: "
                             "its common period is 4 pi x/|Q|")
        y0 = bloch8_from_density(initial_density_north())
        scale = math.sqrt(3.0)   # |q(T) - q(0)|/sqrt(3) is the Frobenius distance of rho(T), rho(0)
    rows = []
    for x in range(1, x_max + 1):
        for y in range(1, y_max + 1):
            if system == "qubit":
                h = closed_trajectory_amplitude_qubit(x, y, omega, H)
            else:
                try:
                    h = closed_trajectory_amplitude_qutrit(x, y, Q, d)
                except ValueError:
                    h = None
            if h is None:
                rows.append({"x": x, "y": y, "h": None, "residual": None,
                             "feasible": False})
                continue
            if system == "qubit":
                period = 2.0 * math.pi * x / abs(omega)
                rhs = make_bloch_rhs(FieldParams.circular(h, H, omega), DampingParams())
            else:
                period = 4.0 * math.pi * x / abs(Q)
                rhs = make_qutrit_rhs_real(FieldParams.circular(h, 0.0, 0.0),
                                           AnisotropyParams(Q=Q, d=d))
            n = max(64, int(points_per_period * x)) + 1
            traj = resample_uniform(rhs, n, y0, (0.0, period), cfg)
            residual = float(np.linalg.norm(traj.states[-1] - traj.states[0])) / scale
            rows.append({"x": x, "y": y, "h": h, "residual": residual,
                         "feasible": True, "period": period})
    return rows


# ----------------------------------------------------------------- parsing

def _float(text):
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _finite_float(text):
    """A finite number; argparse names the flag in the error."""
    value = _float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text):
    """A finite number above zero; argparse names the flag in the error."""
    value = _float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _grid_size(periods):
    """Output samples of a free run of `periods` natural periods."""
    return int(_POINTS_PER_PERIOD * max(1.0, periods)) + 1


def _periods(text):
    """A positive, finite number of periods whose grid stays within
    _MAX_SAMPLES; argparse names the flag in the error."""
    value = _positive_float(text)
    if _grid_size(value) > _MAX_SAMPLES:
        raise argparse.ArgumentTypeError(
            f"{text} periods ask for {_grid_size(value)} samples, over the cap of "
            f"{_MAX_SAMPLES} ({(_MAX_SAMPLES - 1) // _POINTS_PER_PERIOD} periods); "
            f"for a longer span give --duration, which samples "
            f"{_grid_size(1.0)} points")
    return value


def _count(text):
    """An integer of at least 1; argparse names the flag in the error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


# the number flags of `simulate`: (flag, default, help)
_SIMULATE_NUMBERS = [
    ("--h", 0.5, "transverse amplitude"),
    ("--H", 0.0, "longitudinal amplitude"),
    ("--omega", 1.0, "drive frequency"),
    ("--modulus", 0.0, "elliptic modulus k"),
    ("--gamma1", 0.0, "longitudinal relaxation rate"),
    ("--gamma2", 0.0, "transverse relaxation rate"),
    ("--req", 0.0, "equilibrium population difference"),
    ("--Q", 0.0, "axial anisotropy"),
    ("--d", 0.0, "transverse anisotropy"),
    ("--theta0", 0.0, "initial polar angle"),
    ("--phi0", 0.0, "initial azimuth"),
]


def _build_parser():
    ap = argparse.ArgumentParser(prog="spinhodo",
                                 description="spin magnetic-resonance hodograph laboratory")
    ap.add_argument("--version", action="version", version=f"spinhodo {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preset", help="run a published-figure preset")
    p.add_argument("name", choices=sorted(PRESETS, key=lambda s: int(s[3:])))
    p.add_argument("--out", required=True, help="output directory")

    s = sub.add_parser("simulate", help="run arbitrary parameters")
    s.add_argument("--system", choices=["qubit", "qutrit"], required=True)
    s.add_argument("--mode", choices=["circular", "linear", "elliptic"],
                   default="circular")
    for flag, default, text in _SIMULATE_NUMBERS:
        s.add_argument(flag, type=_finite_float, default=default, help=text)
    s.add_argument("--periods", type=_periods, default=1.0,
                   help="duration in natural periods")
    s.add_argument("--duration", type=_positive_float, default=None,
                   help="absolute duration (overrides --periods)")
    s.add_argument("--analytic", action="store_true",
                   help="compare against the closed-form solution")
    s.add_argument("--out", required=True)

    c = sub.add_parser("closure", help="closed-trajectory search")
    c.add_argument("--system", choices=["qubit", "qutrit"], required=True)
    c.add_argument("--xmax", type=_count, default=4)
    c.add_argument("--ymax", type=_count, default=4)
    c.add_argument("--omega", type=_finite_float, default=1.0)
    c.add_argument("--H", type=_finite_float, default=1.0)
    c.add_argument("--Q", type=_finite_float, default=1.0)
    c.add_argument("--d", type=_finite_float, default=0.0)
    c.add_argument("--out", default=None)
    return ap


def _natural_period(args, fp, ap):
    if args.system == "qubit":
        # at omega = 0 every mode is the static field (h, 0, H)
        if fp.mode is FieldMode.ELLIPTIC and fp.k > 0.0 and fp.omega != 0.0:
            if fp.k == 1.0:
                raise ValueError("--modulus 1 drives one hyperbolic impulse, which has "
                                 "no period: give --duration")
            return 4.0 * complete_k(fp.k) / abs(fp.omega)
        h = args.h
        if fp.mode is FieldMode.LINEAR and fp.omega != 0.0:
            h /= 2.0     # h cos(wt) co-rotates with amplitude h/2 (rotating-wave)
        Om = math.hypot(fp.H - fp.omega, h)
        if Om == 0.0:
            raise ValueError("degenerate parameters: specify --duration explicitly")
        return 2.0 * math.pi / Om
    f = math.hypot(2.0 * args.h, ap.Q, 2.0 * ap.d)
    if f == 0.0:
        raise ValueError("degenerate parameters: specify --duration explicitly")
    return 2.0 * math.pi / f


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "preset":
            report = run_preset(args.name, args.out)
            checks = report["caption_checks"] or []
            for c in checks:
                mark = "ok  " if c["passed"] else "FAIL"
                print(f"[{mark}] {args.name} {c['quantity']}: expected {c['expected']}, "
                      f"observed {c['observed']}")
            print(f"wrote {args.out}/trajectory.csv geometry.csv report.json plot.gp")
        elif args.command == "simulate":
            mode = FieldMode(args.mode)
            if mode is FieldMode.CIRCULAR:
                fp = FieldParams.circular(args.h, args.H, args.omega)
            elif mode is FieldMode.LINEAR:
                fp = FieldParams.linear(args.h, args.H, args.omega)
            else:
                fp = FieldParams.elliptic(args.h, args.H, args.omega, args.modulus)
            dp = DampingParams(args.gamma1, args.gamma2, args.req)
            ap_ = AnisotropyParams(args.Q, args.d)
            init = InitialAngles(args.theta0, args.phi0)
            # a --duration run gets one period's grid, whatever --periods says
            duration, n_out = args.duration, _grid_size(1.0)
            if duration is None:
                duration = args.periods * _natural_period(args, fp, ap_)
                n_out = _grid_size(args.periods)
            report = simulate(args.system, fp, duration, out_dir=args.out, dp=dp,
                              init=init, ap=ap_, n_out=n_out, analytic=args.analytic)
            if report["analytic_max_deviation"] is not None:
                print(f"analytic vs numeric max deviation: "
                      f"{report['analytic_max_deviation']:.3e}")
            print(f"wrote {args.out}/trajectory.csv geometry.csv report.json plot.gp")
        else:
            rows = closure_search(args.system, args.xmax, args.ymax,
                                  omega=args.omega, H=args.H, Q=args.Q, d=args.d)
            print(f"{'x':>3} {'y':>3} {'amplitude':>22} {'closure residual':>18}")
            for r in rows:
                if not r["feasible"]:
                    print(f"{r['x']:>3} {r['y']:>3} {'infeasible':>22}")
                else:
                    print(f"{r['x']:>3} {r['y']:>3} {r['h']:>22.15g} {r['residual']:>18.3e}")
            if args.out:
                Path(args.out).mkdir(parents=True, exist_ok=True)
                with open(Path(args.out) / "closure.json", "w") as fh:
                    json.dump(rows, fh, indent=2)
    except (ValueError, UnsupportedAnalytic, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
