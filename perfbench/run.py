#!/usr/bin/env python3
"""spinhodo benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload {figures,closure,elliptic,all} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the checkout's ``src/``.
With ``--trace 0`` it prints ``setup_s``, ``wall_s``, ``samples_per_s``,
``peak_rss_mb`` and ``failed_ops``; with ``--trace 1`` every per-layer
metric named in ``BENCHMARK.json`` and ``trace.overhead_s``.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each run also writes its record, spans included, to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.

``BENCHMARK.json`` lists ``figures`` and ``elliptic``.  ``closure`` runs only
on request: its qutrit search is one operation of about 8 s, too few runs of
it fit in one measurement to be steady on a shared host, but it is still the
workload that bypasses ``geometry`` and writing.

The workload runs in a child process (``worker.py``) with a pinned
environment: ``SPINHODO_TOL`` removed, since it changes the tolerances and
so the workload; BLAS and OpenMP limited to one thread; ``src/`` first on
the path.  ``setup_s`` is the median time of fresh interpreters importing
``spinhodo``, ``spinhodo.cli`` and the ``PRESETS`` table.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("figures", "closure", "elliptic")
SETUP_RUNS = 11
WORKER_TIMEOUT_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBE = """
import spinhodo, spinhodo.cli
from spinhodo.presets import PRESETS
if sorted(PRESETS) != sorted(f"fig{i}" for i in range(1, 11)) or PRESETS["fig3"].n_output != 24001:
    raise SystemExit("PRESETS table unusable")
"""


class BenchError(Exception):
    """The benchmark could not produce a result."""


def pinned_env():
    env = dict(os.environ)
    env.pop("SPINHODO_TOL", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version()}


def metric_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure_setup(env):
    """Seconds from a fresh interpreter to a usable package, SETUP_RUNS times."""
    def once():
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
        return elapsed

    once()  # byte-compiles the sources and warms the file cache; not counted
    return [once() for _ in range(SETUP_RUNS)]


def run_worker(workload, args, env):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"{workload} worker exited with {done.returncode}: "
                         f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload, args, env, units):
    raw = run_worker(workload, args, env)
    measured = dict(raw.pop("metrics"))
    if not args.trace:
        setup = measure_setup(env)
        measured["setup_s"] = (statistics.median(setup), len(setup))
    if set(measured) != set(units):
        raise BenchError(f"metrics {sorted(set(measured) ^ set(units))} do not "
                         f"match BENCHMARK.json")
    metrics = {name: {"value": measured[name][0], "unit": unit, "n": measured[name][1]}
               for name, unit in units.items()}
    spans = raw.pop("spans", None)
    record = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "correct": raw["failed"] == 0,
              "environment": {**machine(), "numpy": raw.pop("numpy")},
              "metrics": metrics, **raw}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "spans": spans}, indent=1))
    return record


def summary(record):
    env = record["environment"]
    lines = [f"{record['workload']}: seed={record['seed']} trace={record['trace']} "
             f"passes={record['passes']} samples/pass={record['samples_per_pass']}",
             f"  environment: nproc={env['nproc']} cpu={env['cpu_model']!r} "
             f"python={env['python']} numpy={env['numpy']}"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:34s} {m['value']:>16.6g} {m['unit']:<14s} n={m['n']}")
    lines.append(f"  {'failed_ops':34s} {record['failed'] / record['attempted']:>16.6g} "
                 f"{'ratio':<14s} n={record['attempted']} operations")
    lines += [f"  FAILED {p}" for p in record["problems"]]
    if record["known_caption_failures"]:
        lines.append("  known caption failures (not counted): "
                     + ", ".join(record["known_caption_failures"]))
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=58.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spinhodo" / "__init__.py").is_file():
        print(f"error: no spinhodo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_spec()
    units = layer_units if args.trace else e2e_units
    env = pinned_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(name, args, env, units) for name in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print(summary(record))

    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}." if prefix else "") + name:
                    {"value": m["value"], "unit": m["unit"]}
                    for r in records for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
