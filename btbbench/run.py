#!/usr/bin/env python3
"""Build and run the btbsim benchmark.

One run (what BENCHMARK.json's command invokes):

    python3 btbbench/run.py --workload realistic|limit|sweep \
        --seed N --seconds S --trace 0|1 [--write-reference]

builds btbbench (Release) under $CARGO_TARGET_DIR (default .bench_build),
in a directory keyed by this checkout's path, from this checkout's
sources, runs it, and exits with its exit code. The last stdout line is
the result JSON; build output goes to stderr.

Steadiness self-check and A/B comparison:

    python3 btbbench/run.py check [--runs 5] [--seed N] [--other DIR]

runs two sets of untraced runs of every workload in BENCHMARK.json, each
run_seconds long, seeds 1..runs (or --seed N for all), workloads and sets
alternating, and prints each end-to-end metric's median and quartiles
per set, one row per workload and metric. Without --other both sets run
this checkout and a row is flagged when a set's quartile spread exceeds
the metric's bound or the medians disagree by more than the bound. With --other, set A runs the checkout at DIR (the base
commit) and set B this one, so the same flags read as "B is worse than A
beyond the bound". Bounds come from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_root():
    # Keyed by checkout: two checkouts sharing an absolute build root must
    # not reuse (and so wipe) each other's CMake tree.
    key = hashlib.sha1(ROOT.encode()).hexdigest()[:12]
    base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return os.path.join(base, "btbbench-" + key)


def build():
    """Configure and build btbbench; return the binary path or exit."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("btbbench: simulator sources (src/) not found next to btbbench/")
    bdir = os.path.join(build_root(), "build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        # A cache left by another source location cannot be reused.
        shutil.rmtree(bdir, ignore_errors=True)
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("btbbench: cmake configure failed")
    cmd = ["cmake", "--build", bdir, "--target", "btbbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("btbbench: build failed")
    return os.path.join(bdir, "btbbench")


def run_one(argv):
    p = argparse.ArgumentParser(description="Run one btbsim benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--write-reference", action="store_true")
    a = p.parse_args(argv)
    binary = build()
    workdir = os.path.join(build_root(), "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", a.workload, "--seed", a.seed,
           "--seconds", a.seconds, "--trace", a.trace,
           "--workdir", workdir,
           "--reference-dir", os.path.join(HERE, "reference")]
    if a.write_reference:
        cmd.append("--write-reference")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


def measure(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "btbbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        sys.exit(f"btbbench check: run failed: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(p.stderr[-2000:])
    return result


def check(argv):
    p = argparse.ArgumentParser(description="Steadiness self-check / A-B.")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--other", default=None,
                   help="checkout of the base commit (set A)")
    p.add_argument("--seed", type=int, default=None,
                   help="run every pair on this seed (e.g. the held-out "
                        "7919) instead of seeds 1..runs")
    a = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    sets = {"A": os.path.abspath(a.other) if a.other else ROOT, "B": ROOT}
    values = {}  # (set, workload, metric) -> [values]
    for i in range(a.runs):
        for wi, w in enumerate(workloads):
            order = "AB" if (i + wi) % 2 == 0 else "BA"
            for s in order:
                seed = a.seed if a.seed is not None else i + 1
                r = measure(sets[s], w, seed, seconds)
                print(f"run {i + 1} {w} set {s}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", flush=True)
                for m in metrics:
                    values.setdefault((s, w, m["name"]), []).append(
                        r["metrics"][m["name"]]["value"])

    def stats(v):
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        return statistics.median(v), q1, q3

    flagged = 0
    print(f"\n{'workload':10} {'metric':14} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'spreadA':>8} {'spreadB':>8} "
          f"{'B worse':>8} {'bound':>6}  flag")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            ma, a1, a3 = stats(values[("A", w, name)])
            mb, b1, b3 = stats(values[("B", w, name)])
            sa = (a3 - a1) / ma if ma else 0.0
            sb = (b3 - b1) / mb if mb else 0.0
            worse = ((mb - ma) if m["better"] == "lower" else (ma - mb)) / ma if ma else 0.0
            flags = []
            if max(sa, sb) > bound:
                flags.append("SPREAD")
            if worse > bound:
                flags.append("WORSE")
            if not flags and max(sa, sb) > bound / 3:
                flags.append("spread>bound/3")
            flagged += "SPREAD" in flags or "WORSE" in flags
            print(f"{w:10} {name:14} {ma:14.6g} [{a1:.6g}, {a3:.6g}] "
                  f"{mb:14.6g} [{b1:.6g}, {b3:.6g}] {sa:8.4f} {sb:8.4f} "
                  f"{worse:8.4f} {bound:6.3f}  {' '.join(flags)}")
    print(f"\n{flagged} metric(s) flagged")
    return 1 if flagged else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "check":
        return check(sys.argv[2:])
    return run_one(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
