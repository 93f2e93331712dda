#!/usr/bin/env python3
"""Builds qdd and the qddbench harness from source, then runs one workload.

One run:

    python3 qddbench/run.py --workload sim-cliffordt --seed 1 --seconds 12 --trace 0

prints the harness's report on standard error and, as the last line of
standard output, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. `--trace 1` reports the per-layer metrics instead and writes the
traced spans to `<target>/qddbench-spans-<workload>.jsonl`.

Steadiness check:

    python3 qddbench/run.py --steady 10 [--workload NAME ...] [--seconds 12]

runs each workload (all of BENCHMARK.json's by default) that many times with
seeds 1..k, prints for each end-to-end metric the median, the quartiles and
the spread (interquartile range over median) next to its bound, and exits 1
when any spread exceeds its bound, or when the share of failed operations
differs between runs.

Run from the repository root. Build outputs go to $CARGO_TARGET_DIR
(default `.bench_build`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "qddbench")


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build():
    """Builds the `qdd` binary and the harness; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("qddbench: no Cargo.toml at the repository root; nothing to build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for args in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "qdd-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        r = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            sys.exit(f"qddbench: build failed: {' '.join(args)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "qdd"), os.path.join(release, "qddbench")


def run_once(harness, qdd, workload, seed, seconds, trace):
    """Runs the harness once; returns (exit code, last stdout line)."""
    work = os.path.join(target_dir(), "qddbench-work")
    args = [harness, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--qdd", qdd, "--work-dir", work]
    if trace:
        args += ["--spans-out", os.path.join(target_dir(), f"qddbench-spans-{workload}.jsonl")]
    r = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (lines[-1] if lines else "")


def steady(harness, qdd, k, workloads, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = seconds or spec["run_seconds"]
    workloads = workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        values, shares = {}, set()
        for seed in range(1, k + 1):
            code, line = run_once(harness, qdd, w, seed, seconds, 0)
            if code != 0:
                print(f"{w} seed {seed}: exit code {code}")
                return 1
            result = json.loads(line)
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {k} runs of {seconds} s, failed share {sorted(shares)}")
        print(f"  {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        if len(shares) != 1:
            ok = False
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            flag = ""
            if not spread <= bound:
                flag = "  EXCEEDS"
                ok = False
            print(f"  {name:<14} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound:>6}{flag}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="K")
    a = p.parse_args()
    qdd, harness = build()
    if a.steady:
        return steady(harness, qdd, a.steady, a.workload, a.seconds)
    if not a.workload or len(a.workload) != 1 or a.seconds is None:
        p.error("a single run needs one --workload and --seconds")
    code, line = run_once(harness, qdd, a.workload[0], a.seed, a.seconds, a.trace)
    if code != 0:
        return code
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
