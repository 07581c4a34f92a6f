"""Spans and counters at spinhodo's layer boundaries, for a traced pass.

The program carries no tracing of its own.  ``Tracer.install`` wraps public
functions of each module by reassigning every ``spinhodo`` module attribute
that refers to them, and ``uninstall`` puts the originals back.

Two kinds of wrapper:

* a *span* (operations, solves, geometry, writing, oracles) is kept in
  memory as ``[name, start, end, parent span, operation id]``;
* a *leaf* (right-hand sides, field evaluations, ``jacobi_sncndn``, ...)
  runs millions of times per pass, so it only adds to its name's totals.

Both keep ``[calls, total_s, self_s]`` per name, where self time is the
call's time minus the time of the wrapped calls made inside it.
"""

import inspect
import math
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from spinhodo import cli, elliptic, geometry, integrator, presets, qubit, qutrit

SPAN, LEAF, FACTORY = "span", "leaf", "factory"


def _count_solve(counts, traj, args, kwargs):
    counts["integrator.steps"] += traj.n_steps
    counts["integrator.rejected"] += traj.n_rejected
    counts["integrator.samples"] += len(traj.times)


_LOOPS_SIGNATURE = inspect.signature(geometry.detect_loops)


def _count_loops(counts, events, args, kwargs):
    bound = _LOOPS_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    n = len(bound.arguments["p"])
    guard = bound.arguments["guard"]
    stride = max(1, math.ceil((n - 1) / bound.arguments["max_segments"]))
    chords = len(range(0, n, stride)) - 1 + (1 if (n - 1) % stride else 0)
    # chord pairs farther apart than the guard band, computed from the count
    far = max(0, chords - guard - 1)
    counts["geometry.loop_chords"] += chords
    counts["geometry.loop_pairs_tested"] += far * (far + 1) // 2
    counts["geometry.loop_events"] += len(events)


def _count_checks(counts, result, args, kwargs):
    counts["presets.checks_total"] += 1
    counts["presets.checks_passed"] += int(bool(result[0]))


def _count_bytes(counts, result, args, kwargs):
    out = Path(args[0] if args else kwargs["out_dir"])
    counts["cli.bytes_written"] += sum(f.stat().st_size for f in out.iterdir() if f.is_file())


# (module, attribute, traced name, kind, counter hook)
TARGETS = [
    (integrator, "integrate", "integrator.solve", SPAN, _count_solve),
    (integrator, "resample_uniform", "integrator.solve", SPAN, _count_solve),
    (qubit, "make_bloch_rhs", "qubit.rhs", FACTORY, None),
    (qubit, "field_at", "qubit.field", LEAF, None),
    (qubit, "analytic_rabi_general", "qubit.oracle", SPAN, None),
    (qubit, "analytic_elliptic_resonance", "qubit.oracle", SPAN, None),
    (qutrit, "make_qutrit_rhs_real", "qutrit.rhs", FACTORY, None),
    (qutrit, "evolve_density", "qutrit.evolve", SPAN, None),
    (qutrit, "bloch8_from_density", "qutrit.bloch8", LEAF, None),
    (qutrit, "qutrit_hamiltonian", "qutrit.hamiltonian", LEAF, None),
    (qutrit, "analytic_qutrit_resonance", "qutrit.oracle", SPAN, None),
    (elliptic, "jacobi_sncndn", "elliptic.sncndn", LEAF, None),
    (geometry, "frenet_geometry", "geometry.frenet", SPAN, None),
    (geometry, "detect_loops", "geometry.loops", SPAN, _count_loops),
    (geometry, "detect_cusps", "geometry.cusps", SPAN, None),
    (geometry, "count_torsion_sign_changes", "geometry.flips", SPAN, None),
    (presets, "check_caption_value", "presets.check", LEAF, _count_checks),
    (cli, "run_preset", "cli.run", SPAN, None),
    (cli, "simulate", "cli.run", SPAN, None),
    (cli, "closure_search", "cli.run", SPAN, None),
    (cli, "write_artifacts", "cli.write", SPAN, _count_bytes),
]


class Tracer:
    def __init__(self):
        self._restore = []
        self.reset()

    def reset(self):
        """Forget everything recorded; the wrappers stay installed."""
        self.spans = []
        self.stats = {}
        self.counts = Counter()
        self.op = None
        self._frames = []         # open calls: [time of wrapped children]
        self._open_spans = []     # indices of open spans, innermost last

    def _wrap(self, name, fn, record, hook=None):
        def traced(*args, **kwargs):
            frame = [0.0]
            frames = self._frames
            if record:
                index = len(self.spans)
                parent = self._open_spans[-1] if self._open_spans else None
                self.spans.append([name, 0.0, 0.0, parent, self.op])
                self._open_spans.append(index)
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                elapsed = end - start
                if frames:
                    frames[-1][0] += elapsed
                stat = self.stats.get(name)
                if stat is None:
                    stat = self.stats[name] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if record:
                    self._open_spans.pop()
                    self.spans[index][1:3] = [start, end]
            if hook is not None:
                hook(self.counts, result, args, kwargs)
            return result
        return traced

    def _factory(self, name, make):
        def traced_factory(*args, **kwargs):
            return self._wrap(name, make(*args, **kwargs), record=False)
        return traced_factory

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "spinhodo" or key.startswith("spinhodo.")]
        for module, attr, name, kind, hook in TARGETS:
            original = getattr(module, attr)
            if kind == FACTORY:
                wrapper = self._factory(name, original)
            else:
                wrapper = self._wrap(name, original, kind == SPAN, hook)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    self._restore.append((m, key, original))
                    setattr(m, key, wrapper)

    def uninstall(self):
        for m, key, original in reversed(self._restore):
            setattr(m, key, original)
        self._restore.clear()

    def pass_record(self):
        """Totals and spans of the pass recorded since the last reset."""
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts), "spans": [list(s) for s in self.spans]}


def counters(record):
    """Every count of a pass: calls per traced name plus the hook counters.

    These must repeat exactly from one traced pass to the next."""
    out = {f"{name}.calls": stat[0] for name, stat in record["stats"].items()}
    out.update(record["counts"])
    return dict(sorted(out.items()))


def layer_metrics(record, diagnostics):
    """Per-layer metric values of one traced pass, by metric name."""
    stats, counts = record["stats"], record["counts"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    steps = counts.get("integrator.steps", 0)
    rejected = counts.get("integrator.rejected", 0)
    samples = counts.get("integrator.samples", 0)
    rhs_evals = calls("qubit.rhs") + calls("qutrit.rhs")
    written = counts.get("cli.bytes_written", 0)
    return {
        "integrator.busy_s": total("integrator.solve"),
        "integrator.self_s": own("integrator.solve"),
        "integrator.solves": calls("integrator.solve"),
        "integrator.steps": steps,
        "integrator.rejected": rejected,
        "integrator.accept_ratio": ratio(steps, steps + rejected),
        "integrator.rhs_evals": rhs_evals,
        "integrator.steps_per_sample": ratio(steps, samples),
        "integrator.rhs_evals_per_sample": ratio(rhs_evals, samples),
        "qubit.rhs_s": total("qubit.rhs"),
        "qubit.rhs_calls": calls("qubit.rhs"),
        "qubit.field_s": total("qubit.field"),
        "qubit.field_calls": calls("qubit.field"),
        "qubit.oracle_s": total("qubit.oracle"),
        "qubit.oracle_max_dev": diagnostics.get("qubit.oracle_max_dev", 0.0),
        "qubit.bloch_drift": diagnostics.get("qubit.bloch_drift", 0.0),
        "qutrit.rhs_s": total("qutrit.rhs"),
        "qutrit.rhs_calls": calls("qutrit.rhs"),
        "qutrit.evolve_self_s": own("qutrit.evolve"),
        "qutrit.bloch8_s": total("qutrit.bloch8"),
        "qutrit.bloch8_calls": calls("qutrit.bloch8"),
        "qutrit.hamiltonian_s": total("qutrit.hamiltonian"),
        "qutrit.hamiltonian_calls": calls("qutrit.hamiltonian"),
        "qutrit.oracle_max_dev": diagnostics.get("qutrit.oracle_max_dev", 0.0),
        "qutrit.q_norm_drift": diagnostics.get("qutrit.q_norm_drift", 0.0),
        "elliptic.sncndn_s": total("elliptic.sncndn"),
        "elliptic.sncndn_calls": calls("elliptic.sncndn"),
        "elliptic.sncndn_per_step": ratio(calls("elliptic.sncndn"), steps),
        "geometry.frenet_s": total("geometry.frenet"),
        "geometry.loops_s": total("geometry.loops"),
        "geometry.loop_chords": counts.get("geometry.loop_chords", 0),
        "geometry.loop_pairs_tested": counts.get("geometry.loop_pairs_tested", 0),
        "geometry.loop_events": counts.get("geometry.loop_events", 0),
        "geometry.cusps_s": total("geometry.cusps"),
        "geometry.flips_s": total("geometry.flips"),
        "presets.checks_s": total("presets.check"),
        "presets.checks_passed": counts.get("presets.checks_passed", 0),
        "presets.checks_total": counts.get("presets.checks_total", 0),
        "cli.self_s": own("cli.run"),
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": written,
        "cli.write_MBps": ratio(written / 1e6, total("cli.write")),
    }
