#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload sim-ticks --seed 1 --seconds 25
    python3 perfbench/run.py --workload sim-ticks --seed 1 --trace 1
    python3 perfbench/run.py --quick

Run it from the root of a source checkout.  It builds perfbench.exe with
dune into .bench_build/ and runs it; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones in BENCHMARK.json, with
--trace 1 the per-layer ones, and the traced run writes its spans to
.bench_build/trace-<workload>-seed<N>.json (Chrome trace-event format).
The exit code is non-zero on any correctness miss.

--quick runs every workload on a few seeds, traced and untraced, and checks
that each prints exactly the metric names and units BENCHMARK.json lists.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "dune", "default", "perfbench", "perfbench.exe")
PINS = os.path.join(HERE, "pins.tsv")
RUN_TIMEOUT_S = 170
QUICK_ELECTIONS = {"real-ring": 8}


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.exit(f"perfbench: {ROOT} is not a source checkout "
                 "(no dune-project or lib/)")
    os.makedirs(BUILD, exist_ok=True)
    cmd = ["dune", "build", "--root", ROOT,
           "--build-dir", os.path.join(BUILD, "dune"),
           "--profile", "release", "./perfbench/perfbench.exe"]
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
    except FileNotFoundError:
        sys.exit("perfbench: dune is not on PATH")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")


def bench_args(workload, seed, seconds, trace, elections=None):
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--pins", PINS]
    if trace:
        args += ["--trace-out",
                 os.path.join(BUILD, f"trace-{workload}-seed{seed}.json")]
    if elections:
        args += ["--elections", str(elections)]
    return args


def run(args, capture):
    try:
        return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")


def quick():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            name = w["name"]
            done = run(bench_args(name, 1, 0, trace,
                                  QUICK_ELECTIONS.get(name, 4)), capture=True)
            lines = done.stdout.strip().splitlines()
            sys.stdout.write(done.stdout)
            try:
                result = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
            except (IndexError, KeyError, AttributeError,
                    json.JSONDecodeError):
                problems.append(f"{name} trace {trace}: no JSON result")
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name} trace {trace}: keys {sorted(result)}")
            if got != expected[trace]:
                problems.append(f"{name} trace {trace}: metrics {got} "
                                f"!= {expected[trace]}")
            if done.returncode != 0 or not result["correct"]:
                problems.append(f"{name} trace {trace}: correctness miss")
    for p in problems:
        print("quick:", p, file=sys.stderr)
    print("quick: " + ("FAIL" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    opts = ap.parse_args()
    if not opts.quick and not opts.workload:
        ap.error("--workload is required")
    build()
    if opts.quick:
        return quick()
    done = run(bench_args(opts.workload, opts.seed, opts.seconds, opts.trace),
               capture=False)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
