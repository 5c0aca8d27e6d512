#!/usr/bin/env python3
"""Run one CI job's gates.

    python3 ci/gates.py test|parity|alloc|bench|saturate

Every job builds the repository (`dune build @all`) first, writes its
outputs under _ci/<job>/ and exits non-zero at the first gate that fails.
Gates that finish in well under a second on the dev build are cram tests
under `dune runtest` instead (test/cli.t, test/order.t, test/real.t); the
`test` job runs them.  Needs dune on PATH and nothing beyond the Python
standard library.
"""

import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ABE = os.path.join(ROOT, "_build", "default", "bin", "abe_sim.exe")
CI = os.path.join(ROOT, "_ci")
OUT = None  # _ci/<job>, set by main


class Failed(Exception):
    pass


def check(ok, what):
    if not ok:
        raise Failed(what)


def run(args, out=None, err=None, env=None):
    """Run ARGS from the repository root and fail unless it exits 0.  Its
    standard output goes to the file named OUT, whose text is returned,
    or else to ours; its standard error to the file named ERR or ours.
    ENV adds to the environment."""
    print("$", " ".join(args), flush=True)
    stdout = open(out, "w") if out else None
    stderr = open(err, "w") if err else None
    try:
        done = subprocess.run(args, cwd=ROOT, stdout=stdout, stderr=stderr,
                              env=dict(os.environ, **(env or {})))
    finally:
        for f in (stdout, stderr):
            if f:
                f.close()
    check(done.returncode == 0, f"{args[0]} exited {done.returncode}")
    if out:
        with open(out) as f:
            return f.read()


def abe(*args, exe=ABE, **files):
    return run([exe, *args], **files)


def metric(path, name):
    """NAME's row of a metrics table (--metrics output): a counter's or a
    histogram's count, a gauge's value."""
    with open(path) as f:
        for line in f:
            fields = line.split()
            if fields and fields[0] == name:
                return float(fields[3] if fields[2] == "-" else fields[2])
    raise Failed(f"{path}: no {name} row")


def same_under_jobs(label, args, jobs_flag):
    """ARGS print the same bytes sequentially and with JOBS_FLAG, once the
    wall-clock throughput: lines are dropped.  Returns the output."""
    def outcome(name, extra):
        text = abe(*args, *extra, out=os.path.join(OUT, f"{label}-{name}.out"))
        return "".join(l for l in text.splitlines(keepends=True)
                       if not l.startswith("throughput:"))
    seq = outcome("seq", [])
    check(seq == outcome("par", jobs_flag),
          f"{label}: output differs under {' '.join(jobs_flag)}")
    return seq


# ------------------------------------------------------------------ jobs

def test():
    """The unit, property, cram and example tests."""
    run(["dune", "runtest"])


def parity():
    """The full experiment suite scores every claim REPRODUCED (reproduce
    exits non-zero otherwise) and prints the same bytes on two domains.
    So does a checked sweep where drifting clocks and processing delays
    interleave the engine's time-ordered run and its heap, at n = 48 and
    at the sim-tokens ring size: a pooled network reused across domains
    with anything left of an earlier run would print different bytes."""
    print(same_under_jobs("reproduce", ["reproduce"], ["-j", "2"]), end="")
    same_under_jobs("drift-sweep",
                    ["sweep", "--sizes", "48,2000", "--reps", "10",
                     "--drift", "1.5", "--gamma", "0.2", "--check"],
                    ["--jobs", "2"])


def alloc():
    """The unchecked sweep allocates at most half a minor word per executed
    event, so a float boxed on the tick path (two words a tick) fails it;
    and the oracle's cost in allocation: a checked sweep allocates at most
    half a minor word per executed event more than the same sweep
    unchecked.  Nothing on either path boxes once the clock reads inline
    across modules, so this is read from a release build, as perfbench
    is."""
    build = os.path.join(CI, "release-build")
    run(["dune", "build", "--profile", "release", "--build-dir", build,
         "bin/abe_sim.exe"])
    exe = os.path.join(build, "default", "bin", "abe_sim.exe")
    minor, events = {}, {}
    for mode, flags in (("plain", []), ("check", ["--check"])):
        table = os.path.join(OUT, f"alloc-{mode}.txt")
        gc = os.path.join(OUT, f"alloc-{mode}.gc")
        abe("sweep", "--sizes", "48", "--reps", "200", "--seed", "1", *flags,
            f"--metrics={table}", exe=exe, out=os.devnull, err=gc,
            env={"OCAMLRUNPARAM": "v=0x400"})
        with open(gc) as f:
            minor[mode] = next(int(l.split()[1]) for l in f
                               if l.startswith("minor_words:"))
        events[mode] = metric(table, "engine/executed")
    check(events["check"] == events["plain"] > 0,
          f"executed events differ: {events}")
    plain = minor["plain"] / events["plain"]
    print("unchecked minor words per event:", round(plain, 3))
    check(plain <= 0.5, f"unchecked run allocates {plain:.3f} words/event > 0.5")
    extra = (minor["check"] - minor["plain"]) / events["check"]
    print("checked minor words per event above plain:", round(extra, 3))
    check(extra <= 0.5, f"checked run allocates {extra:.3f} words/event > 0.5")


def bench():
    """The benchmark's self-test; three per-layer ladders of the observed
    workload and their gates; the pinned totals of seed bases 1 and 17."""
    perfbench = [sys.executable, "perfbench/run.py"]
    # Every workload on a few elections, traced and untraced: each run
    # elects, replays identically and prints exactly the metric names and
    # units BENCHMARK.json lists.
    run(perfbench + ["--quick"])
    ratios = []
    for i in (1, 2, 3):
        out = run(perfbench + ["--workload", "sim-observed", "--trace", "1",
                               "--seconds", "1"],
                  out=os.path.join(OUT, f"observed-ladder-{i}.out"))
        m = {k: v["value"]
             for k, v in json.loads(out.splitlines()[-1])["metrics"].items()}
        # Two rungs that do not depend on the host: the engine's fast loop
        # allocates nothing, and causal span recording costs at most 32 B
        # per executed event.
        engine, causal = m["engine.alloc_b_per_event"], m["observe.causal_b_per_event"]
        print("engine.alloc_b_per_event", engine, "observe.causal_b_per_event", causal)
        check(engine == 0, f"engine.alloc_b_per_event = {engine}, not 0")
        check(causal <= 32, f"observe.causal_b_per_event = {causal} > 32")
        ratios.append(m["engine.ns_per_event"] / m["holdq.ns_per_op"])
    # The raw engine against the hold queue, timed in the same ladder:
    # queue code of the same kind, and Holdq never calls Engine, so the
    # host's speed cancels.  On a 2-vCPU VM single ladders read 0.30-0.90,
    # and 0.81-1.44 with a 2x slowdown of Engine; the median of three read
    # at most 0.54, and at least 1.01 slowed.
    median = statistics.median(ratios)
    print("engine.ns_per_event / holdq.ns_per_op",
          [round(r, 3) for r in ratios], "median", round(median, 3))
    check(median <= 0.8, f"engine/holdq median {median:.3f} > 0.8")
    # Seed bases 1 and 17 of each simulated workload in full: their event,
    # message and tick totals must equal perfbench/pins.tsv.
    for base in ("1", "17"):
        for workload in ("sim-ticks", "sim-tokens", "sim-observed"):
            run(perfbench + ["--workload", workload, "--seed", base,
                             "--seconds", "0"])


def saturate():
    """Concurrent thread-mode clusters to completion (about 500 threads),
    emitting the real backend's benchmark artifact, whose shape is gated:
    every election completed, positive throughput, a finite ordered
    latency tail and no file-descriptor leak."""
    path = os.path.join(OUT, "BENCH_real.json")
    abe("saturate", "-n", "4", "--elections", "120", "--concurrency", "100",
        "--a0", "0.1", "--scale", "0.002", "--seed", "1", "--out", path)
    with open(path) as f:
        r = json.load(f)
    check(r["schema"] == "abe-real-bench/v1", f"schema {r['schema']}")
    check(r["completed"] == r["elections"] and r["failed"] == 0,
          f"completed {r['completed']} of {r['elections']}, failed {r['failed']}")
    check(r["elections_per_sec"] > 0, f"elections_per_sec {r['elections_per_sec']}")
    lat = r["latency_wall_seconds"]
    q = [lat["p50"], lat["p95"], lat["p99"]]
    check(all(math.isfinite(x) and x >= 0 for x in q) and q == sorted(q),
          f"latency quantiles {q}")
    # A count of -1 means the platform could not count descriptors.
    if r["fd_before"] >= 0 and r["fd_after"] >= 0:
        check(r["fd_after"] <= r["fd_before"],
              f"fds {r['fd_before']} -> {r['fd_after']}")
    print("real bench:", r["completed"], "elections,", r["elections_per_sec"],
          "/s, p99", lat["p99"], ", fds", r["fd_before"], "->", r["fd_after"])


JOBS = {f.__name__: f for f in (test, parity, alloc, bench, saturate)}


def main():
    global OUT
    if len(sys.argv) != 2 or sys.argv[1] not in JOBS:
        got = " ".join(sys.argv[1:]) or "no job"
        sys.exit(f"gates: unknown job {got!r} (expected one of {', '.join(JOBS)})")
    job = sys.argv[1]
    OUT = os.path.join(CI, job)
    os.makedirs(OUT, exist_ok=True)
    try:
        run(["dune", "build", "@all"])
        JOBS[job]()
    except Failed as e:
        sys.exit(f"gates: {job}: FAILED: {e}")
    print(f"gates: {job}: ok")


if __name__ == "__main__":
    main()
