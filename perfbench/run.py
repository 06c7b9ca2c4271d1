#!/usr/bin/env python3
"""Builds and runs the repository benchmark; prints every metric by name.

    python3 perfbench/run.py --workload relay_block --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
only check that the build is current. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Exit status is non-zero, with no result line, when the build or the run
fails; it is non-zero after a result line with "correct": false when the
run found a wrong result, a daemon error, a connection error or a leaked
connection.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import metrics

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
WORKLOADS = ("relay_block", "sync_graphene", "sync_rateless")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd[:2]))
    return BUILD / "perfbench"


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one measurement; returns (report, exit status). `extra` holds
    further binary flags (the self-test's --fail-denom)."""
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"{workload}.{'trace' if trace else 'e2e'}.json"
    if out.exists():
        out.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0", "--out", str(out),
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode not in (0, 3) or not out.exists():
        raise RuntimeError(f"perfbench exited with status {proc.returncode}")
    with open(out, encoding="utf-8") as f:
        return json.load(f), proc.returncode


def describe(report, values):
    """Human-readable lines: every metric by name and unit, plus sample counts."""
    lines = [f"workload {report['workload']}  seed {report['seed']}  "
             f"traced {int(report['traced'])}"]
    if "e2e" in report:
        sessions = report["e2e"]["sessions"]
        n = len(sessions["wall_ns"])
        kept = len(metrics.undisturbed(sessions))
        lines.append(f"  sessions {n} in {len(set(sessions['pass']))} passes, {kept} undisturbed "
                     f"(p99 has {metrics.samples_beyond(kept, 99)} samples beyond it); "
                     f"{len(report['e2e']['setup_ns'])} set-ups, median")
    for name, (value, unit) in values.items():
        lines.append(f"  {name:<32} {value:>14.6g} {unit}")
    for err in report["errors"]:
        lines.append(f"  ERROR {err}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        binary = build()
        report, status = run_binary(binary, args.workload, args.seed, args.seconds,
                                    bool(args.trace))
        values = (metrics.layer_metrics(report) if args.trace
                  else metrics.e2e_metrics(report))
    except (RuntimeError, OSError, ValueError, KeyError, metrics.MetricError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    res = metrics.result(report, values)
    for line in describe(report, values):
        print(line)
    print(json.dumps(res), flush=True)
    return 0 if res["correct"] and status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
