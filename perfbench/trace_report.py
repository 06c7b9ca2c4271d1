#!/usr/bin/env python3
"""Aggregates traced perfbench reports into the named per-layer metrics.

    python3 perfbench/trace_report.py .bench_build/out/*.trace.json

A traced run (run.py --trace 1) leaves its report in
.bench_build/out/<workload>.trace.json; its format, perfbench.trace.v1, is
documented in perfbench/README.md. Each file becomes one column: per-layer
self times and counts per session, then trace.overhead_share and
daemon.io_wait_ms.
"""

import json
import sys

import metrics


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    columns = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
        if report.get("trace", {}).get("format") != "perfbench.trace.v1":
            print(f"{path}: not a perfbench.trace.v1 report", file=sys.stderr)
            return 1
        columns.append((report["workload"], metrics.layer_metrics(report)))
    width = max(14, *(len(w) for w, _ in columns))
    print(f"{'metric':<34}{'unit':<8}" + "".join(f"{w:>{width + 2}}" for w, _ in columns))
    for name, unit in metrics.per_layer_names():
        cells = "".join(f"{vals[name][0]:>{width + 2}.6g}" for _, vals in columns)
        print(f"{name:<34}{unit:<8}{cells}")
    for workload, vals in columns:
        print(f"{workload}: trace.overhead_share {vals['trace.overhead_share'][0]:.4f}, "
              f"daemon.io_wait_ms {vals['daemon.io_wait_ms'][0]:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
