"""Runs one workload in a process of its own and prints its raw results.

Started by ``run.py`` with the pinned environment; prints one JSON object on
its last stdout line.  With ``--trace 0`` it runs one whole pass, then
keeps running the operations in seeded pass order, each one only while it
is expected to end within ``--seconds``; with ``--trace 1`` it runs a
traced, an untraced and a traced pass, and the two traced passes' counters
must agree.
"""

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
import spinhodo

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


class DeterminismError(RuntimeError):
    """Two passes of the same code disagreed on a counter or a report."""


def check_source():
    """The imported package must be this checkout's ``src/`` copy."""
    where = Path(spinhodo.__file__).resolve().parent
    expected = (ROOT / "src" / "spinhodo").resolve()
    if where != expected:
        raise SystemExit(f"error: imported spinhodo from {where}, expected {expected}")


def run_pass(ops, order, scratch, tracer=None, deadline=None, expected=None):
    """Run the operations in `order` once each; returns (seconds per op,
    outcome per op).  When `expected` times are given, an operation runs
    only if its expected time lets it end before `deadline`."""
    times, outcomes = {}, {}
    for i in order:
        op = ops[i]
        if expected is not None and perf_counter() + expected[op.op_id] > deadline:
            continue
        out_dir = Path(tempfile.mkdtemp(dir=scratch)) if op.writes else None
        gc.collect()
        if tracer is not None:
            tracer.op = op.op_id
        start = perf_counter()
        try:
            result = op.run(out_dir)
            times[op.op_id] = perf_counter() - start
            outcomes[op.op_id] = op.check(result, out_dir)
        except Exception as exc:  # a failed operation or check is a measured outcome
            times.setdefault(op.op_id, perf_counter() - start)
            outcomes[op.op_id] = workloads.Outcome([f"{op.op_id}: {exc!r}"], [], "", {})
        finally:
            if tracer is not None:
                tracer.op = None
            if out_dir is not None:
                shutil.rmtree(out_dir)
    return times, outcomes


def median_pass_s(pass_times):
    """Time of one full pass: the sum over operations of each one's median
    over the passes that ran it."""
    return sum(statistics.median(p[op] for p in pass_times if op in p)
               for op in pass_times[0])


def check_digests(all_outcomes):
    for op_id in all_outcomes[0]:
        digests = {o[op_id].digest for o in all_outcomes if op_id in o}
        if len(digests) > 1:
            raise DeterminismError(f"{op_id}: report differs between passes")


def timed_passes(ops, args, scratch):
    """One whole pass, then further passes in which each operation runs only
    when its previous time lets it end within ``args.seconds``; stops at the
    first pass that runs nothing."""
    pass_times, all_outcomes = [], []
    deadline = perf_counter() + args.seconds
    expected = None
    while True:
        order = workloads.pass_order(len(ops), args.seed, len(pass_times))
        times, outcomes = run_pass(ops, order, scratch, deadline=deadline, expected=expected)
        if not times:
            return pass_times, all_outcomes
        pass_times.append(times)
        all_outcomes.append(outcomes)
        expected = {**(expected or {}), **times}


def traced_passes(ops, args, scratch):
    """An untraced pass between two traced ones, so that a steady drift in
    the host's speed cancels in ``trace.overhead_s``."""
    pass_times, all_outcomes, traced = [], [], []
    tracer = tracing.Tracer()
    try:
        for index in range(3):
            if index != 1:
                tracer.install()
                tracer.reset()
            order = workloads.pass_order(len(ops), args.seed, index)
            times, outcomes = run_pass(ops, order, scratch, tracer if index != 1 else None)
            pass_times.append(times)
            all_outcomes.append(outcomes)
            if index != 1:
                traced.append(tracer.pass_record())
                tracer.uninstall()
        return pass_times, all_outcomes, traced
    finally:
        tracer.uninstall()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    check_source()

    ops = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="artifacts-", dir=OUT))
    try:
        if args.trace:
            pass_times, all_outcomes, traced = traced_passes(ops, args, scratch)
        else:
            pass_times, all_outcomes = timed_passes(ops, args, scratch)
    finally:
        shutil.rmtree(scratch)

    check_digests(all_outcomes)
    problems = [p for o in all_outcomes for oc in o.values() for p in oc.problems]
    known = sorted({k for oc in all_outcomes[0].values() for k in oc.known})
    diagnostics = {}
    for oc in all_outcomes[0].values():
        for key, value in oc.diagnostics.items():
            diagnostics[key] = max(value, diagnostics.get(key, 0.0))

    samples = sum(op.samples for op in ops)
    result = {
        "attempted": sum(len(o) for o in all_outcomes),
        "failed": sum(1 for o in all_outcomes for oc in o.values() if oc.problems),
        "problems": problems,
        "known_caption_failures": known,
        "passes": len(pass_times),
        "pass_times": pass_times,
        "samples_per_pass": samples,
        "numpy": np.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not args.trace:
        wall = median_pass_s(pass_times)
        runs = sum(len(p) for p in pass_times)
        result["metrics"] = {
            "wall_s": (wall, runs),
            "samples_per_s": (samples / wall, runs),
            "peak_rss_mb": (result["peak_rss_mb"], 1),
        }
    else:
        counts = [tracing.counters(r) for r in traced]
        if counts[0] != counts[1]:
            diff = {k: (counts[0].get(k), counts[1].get(k))
                    for k in counts[0].keys() | counts[1].keys()
                    if counts[0].get(k) != counts[1].get(k)}
            raise DeterminismError(f"counters differ between traced passes: {diff}")
        per_pass = [tracing.layer_metrics(r, diagnostics) for r in traced]
        # counts are equal in both passes (checked above); times are medians
        metrics = {name: (statistics.median(p[name] for p in per_pass)
                          if isinstance(per_pass[0][name], float) else per_pass[0][name],
                          len(per_pass))
                   for name in per_pass[0]}
        untraced = sum(pass_times[1].values())
        traced_wall = statistics.median(sum(pass_times[i].values()) for i in (0, 2))
        metrics["trace.overhead_s"] = (traced_wall - untraced, 1)
        result["metrics"] = metrics
        result["counters"] = counts[0]
        result["traced_pass_s"] = traced_wall
        result["spans"] = [{"pass": i, **r} for i, r in zip((0, 2), traced)]
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except DeterminismError as exc:
        print(f"error: determinism check failed: {exc}", file=sys.stderr)
        sys.exit(3)
