"""The benchmark's three workloads and the correctness gate of each operation.

Each workload is a closed loop: one process runs one operation at a time.

* ``figures``  - ``run_preset`` for fig1-fig10 with every artifact written.
  The paper's output; the only workload that reaches every layer except
  ``elliptic``, and its integrations are bound by the output grid.
* ``closure``  - the two closed-trajectory searches of acceptance criterion 9
  at the CLI default of 300 points per period.  Many short, tolerance-bound
  solves through ``integrator`` and the two right-hand sides only.
* ``elliptic`` - ``simulate`` with the consistent elliptic drive at
  resonance, north-pole start, cross-checked against its closed form and
  without artifacts.  The only workload that calls ``jacobi_sncndn``.

The seed draws the elliptic sweep's amplitude, damping and moduli, and the
order of the operations within every pass.  The published inputs of
``figures`` and ``closure`` and the sizes of all inputs are fixed.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from spinhodo import cli
from spinhodo.presets import PRESETS
from spinhodo.qubit import (DampingParams, FieldMode, FieldParams,
                            InitialAngles, analytic_rabi_general)
from spinhodo.qutrit import analytic_qutrit_resonance

# Operations call ``cli.<function>`` through the module so that a traced pass
# reaches the wrappers; the gate keeps the oracles imported above, bound
# before any wrapping, so checking adds nothing to the layer counts.

NAMES = ("figures", "closure", "elliptic")

# Caption checks that fail at the seed and are recorded, not counted as
# failures: the three strict xfails of the test suite, then the two that
# fail without being asserted.
KNOWN_CAPTION_FAILURES = frozenset({
    ("fig7", "arc_length"), ("fig10", "curvature"),
    ("fig10", "torsion_sign_changes"),
    ("fig3", "phi_dot"), ("fig7", "torsion"),
})
ORACLE_BOUND = 1e-8          # criteria 2 and 8
LENGTH_BOUND = 1e-9          # fig7 has no closed form: ||R| - 1| only
SQRT2 = math.sqrt(2.0)

# closure_search arguments, residual bound (criterion 9) and the feasible
# (x, y) pairs of the seed.
CLOSURE_POINTS_PER_PERIOD = 300
CLOSURE_CALLS = {
    "closure-qutrit": (("qutrit", 6, 6), {"Q": 1.0}, 1e-5,
                       [(x, y) for x in range(1, 7) for y in range(x, 7)]),
    "closure-qubit": (("qubit", 4, 4), {"omega": 0.3, "H": 0.45}, 1e-6,
                      [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4),
                       (3, 2), (3, 3), (3, 4), (4, 3), (4, 4)]),
}

# Elliptic sweep: long runs on a coarse grid, so the step count is set by
# the tolerance (about four steps per sample), not by the grid.
ELLIPTIC_OMEGA = 0.5
ELLIPTIC_DURATION = 60.0
ELLIPTIC_SAMPLES = 601
ELLIPTIC_STRATA = 5          # moduli drawn one per fifth of (0, 1), plus k = 1


@dataclass
class Outcome:
    """What the gate found for one operation's output."""

    problems: list            # failed checks; empty when the output is correct
    known: list               # caption checks that fail as they did at the seed
    digest: str               # hash of the report, for the determinism check
    diagnostics: dict         # measured deviations, merged by max over operations


@dataclass
class Operation:
    op_id: str
    samples: int              # output-grid samples the operation delivers
    run: Callable             # run(out_dir) -> result; the timed call
    check: Callable           # check(result, out_dir) -> Outcome; untimed
    writes: bool = False      # needs an artifact directory


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _report_digest(report):
    # the serialisation the CLI writes report.json and closure.json with
    return _digest(json.dumps(report, indent=2).encode())


def _load_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


# ------------------------------------------------------------------ figures

def _check_figure(name, report, out_dir):
    preset = PRESETS[name]
    out = Path(out_dir)
    problems, known = [], []
    missing = [f for f in ("trajectory.csv", "geometry.csv", "report.json", "plot.gp")
               if not (out / f).is_file()]
    if missing:
        return Outcome([f"{name}: missing {missing}"], [], "", {})

    for check in report["caption_checks"] or []:
        key = (name, check["quantity"])
        if key in KNOWN_CAPTION_FAILURES:
            known.append(f"{name}:{check['quantity']}")
        elif not check["passed"]:
            problems.append(f"{name}: caption check {check['quantity']} failed")

    cols = _load_csv(out / "trajectory.csv")
    t = cols["t"]
    if len(t) != preset.n_output:
        problems.append(f"{name}: {len(t)} samples, expected {preset.n_output}")
    fp = preset.fieldp
    diagnostics = {}
    if preset.system == "qubit":
        R = np.stack([cols["R1"], cols["R2"], cols["R3"]], axis=1)
        drift = float(np.max(np.abs(np.linalg.norm(R, axis=1) - 1.0)))
        diagnostics["qubit.bloch_drift"] = drift
        if fp.mode is FieldMode.LINEAR:
            if not drift < LENGTH_BOUND:
                problems.append(f"{name}: ||R|-1| = {drift:.3g} >= {LENGTH_BOUND}")
        else:
            ref = analytic_rabi_general(t, preset.init, fp.h1, fp.H, fp.omega,
                                        preset.damping.gamma1)
            dev = float(np.max(np.abs(ref - R)))
            diagnostics["qubit.oracle_max_dev"] = dev
            if not dev < ORACLE_BOUND:
                problems.append(f"{name}: closed-form deviation {dev:.3g} >= {ORACLE_BOUND}")
    else:
        q = np.stack([cols[f"q{i}"] for i in range(1, 9)], axis=1)
        diagnostics["qutrit.q_norm_drift"] = float(
            np.max(np.abs(np.linalg.norm(q, axis=1) - SQRT2)))
        ref = analytic_qutrit_resonance(t, fp.h1, preset.aniso.Q, fp.omega)
        dev = float(np.max(np.abs(ref - q)))
        diagnostics["qutrit.oracle_max_dev"] = dev
        if not dev < ORACLE_BOUND:
            problems.append(f"{name}: closed-form deviation {dev:.3g} >= {ORACLE_BOUND}")
    digest = _digest((out / "report.json").read_bytes())
    return Outcome(problems, known, digest, diagnostics)


def _figure_op(name):
    return Operation(
        op_id=name,
        samples=PRESETS[name].n_output,
        run=lambda out_dir: cli.run_preset(name, out_dir),
        check=lambda report, out_dir: _check_figure(name, report, out_dir),
        writes=True,
    )


# ------------------------------------------------------------------ closure

def _closure_samples(feasible):
    # the grid closure_search integrates each feasible pair on
    return sum(max(64, int(CLOSURE_POINTS_PER_PERIOD * x)) + 1 for x, _ in feasible)


def _check_closure(op_id, rows, bound, feasible):
    problems = []
    found = [(r["x"], r["y"]) for r in rows if r["feasible"]]
    if found != feasible:
        problems.append(f"{op_id}: feasible set {found} differs from {feasible}")
    for r in rows:
        if r["feasible"] and not r["residual"] < bound:
            problems.append(f"{op_id}: ({r['x']}, {r['y']}) residual "
                            f"{r['residual']:.3g} >= {bound}")
    return Outcome(problems, [], _report_digest(rows), {})


def _closure_op(op_id):
    args, kwargs, bound, feasible = CLOSURE_CALLS[op_id]
    return Operation(
        op_id=op_id,
        samples=_closure_samples(feasible),
        run=lambda out_dir: cli.closure_search(
            *args, points_per_period=CLOSURE_POINTS_PER_PERIOD, **kwargs),
        check=lambda rows, out_dir: _check_closure(op_id, rows, bound, feasible),
    )


# ----------------------------------------------------------------- elliptic

def _check_elliptic(op_id, report, damped):
    problems = []
    if report["n_samples"] != ELLIPTIC_SAMPLES:
        problems.append(f"{op_id}: {report['n_samples']} samples, "
                        f"expected {ELLIPTIC_SAMPLES}")
    dev = report["analytic_max_deviation"]
    if dev is None or not dev < ORACLE_BOUND:
        problems.append(f"{op_id}: closed-form deviation {dev} >= {ORACLE_BOUND}")
    diagnostics = {"qubit.oracle_max_dev": dev or 0.0}
    if not damped:
        diagnostics["qubit.bloch_drift"] = max(
            abs(v - 1.0) for v in report["observed"]["bloch_length"])
    return Outcome(problems, [], _report_digest(report), diagnostics)


def _elliptic_op(h, k, gamma):
    op_id = f"elliptic-k{k:.4f}-g{gamma:.4f}"
    fp = FieldParams.elliptic(h, ELLIPTIC_OMEGA, ELLIPTIC_OMEGA, k)
    dp = DampingParams.uniform(gamma)
    return Operation(
        op_id=op_id,
        samples=ELLIPTIC_SAMPLES,
        run=lambda out_dir: cli.simulate(
            "qubit", fp, ELLIPTIC_DURATION, dp=dp, init=InitialAngles(0.0, 0.0),
            n_out=ELLIPTIC_SAMPLES, analytic=True),
        check=lambda report, out_dir: _check_elliptic(op_id, report, gamma > 0.0),
    )


def _elliptic_ops(seed):
    rng = np.random.default_rng([seed, 1])
    h = float(rng.uniform(0.48, 0.52))
    gamma = float(rng.uniform(0.005, 0.02))
    moduli = [(i + float(rng.uniform(0.2, 0.8))) / ELLIPTIC_STRATA
              for i in range(ELLIPTIC_STRATA)] + [1.0]
    return [_elliptic_op(h, k, g) for k in moduli for g in (0.0, gamma)]


# -------------------------------------------------------------------- build

def build(name, seed):
    """The operations of one pass of workload `name`, in their listed order."""
    if name == "figures":
        return [_figure_op(f"fig{i}") for i in range(1, 11)]
    if name == "closure":
        return [_closure_op(op_id) for op_id in CLOSURE_CALLS]
    if name == "elliptic":
        return _elliptic_ops(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def pass_order(n_ops, seed, pass_index):
    """The seeded order of the operations in one pass."""
    rng = np.random.default_rng([seed, 2, pass_index])
    return [int(i) for i in rng.permutation(n_ops)]
