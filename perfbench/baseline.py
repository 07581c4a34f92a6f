#!/usr/bin/env python3
"""Writes ``perfbench/baseline.json`` from the run records in ``perfbench/out/``.

    python3 perfbench/baseline.py --seeds 11 12 ... 20 --traced-seed 11

For each workload of ``BENCHMARK.json`` it needs ``out/<workload>-seed<N>-trace0.json`` for every
seed given and ``out/<workload>-seed<T>-trace1.json`` for the traced seed, as
``run.py`` leaves them.  The end-to-end metrics become median and quartiles
over the seeds; the per-layer metrics and counters are the traced run's.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


def load(workload, seed, trace):
    return json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def end_to_end(records):
    out = {}
    for name, first in records[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in records]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "iqr_over_median": (q3 - q1) / median, "unit": first["unit"],
                     "runs": len(values),
                     "samples_per_run": [r["metrics"][name]["n"] for r in records]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--traced-seed", type=int, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    runs = {w["name"]: [load(w["name"], seed, 0) for seed in args.seeds]
            for w in spec["workloads"]}
    workloads = {}
    for workload, records in runs.items():
        traced = load(workload, args.traced_seed, 1)
        workloads[workload] = {
            "end_to_end": end_to_end(records),
            "failed_ops": {"failed": sum(r["failed"] for r in records),
                           "attempted": sum(r["attempted"] for r in records)},
            "known_caption_failures": records[0]["known_caption_failures"],
            "per_layer": traced["metrics"],
            "traced_pass_s": traced["traced_pass_s"],
            "counters": traced["counters"],
        }
    baseline = {
        "what": ("Baseline of the spinhodo benchmark at the commit that added it: "
                 "for each workload the end-to-end metrics of runs on seeds "
                 f"{', '.join(map(str, args.seeds))} (--trace 0) as median and "
                 "quartiles, and the per-layer metrics and counters of one traced "
                 f"run (seed {args.traced_seed})."),
        "run_seconds": spec["run_seconds"],
        "workloads": workloads,
        "environment": next(iter(runs.values()))[0]["environment"],
    }
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
