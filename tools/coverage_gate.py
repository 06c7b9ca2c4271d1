#!/usr/bin/env python3
"""Line-coverage ratchet for the decode-critical libraries.

Reads the .gcda files produced by a GRAPHENE_COVERAGE=ON build after a ctest
run, asks gcov for machine-readable (JSON) line records, and aggregates line
coverage for each directory that has a floor in tools/coverage_baseline.json.
The run fails if any scope drops below its floor by more than the tolerance.

No third-party dependencies on purpose: gcov ships with gcc and the JSON
format is stable since gcc 9.  Usage:

    cmake -B build-cov -DGRAPHENE_COVERAGE=ON && cmake --build build-cov
    ctest --test-dir build-cov
    python3 tools/coverage_gate.py build-cov [--report coverage.txt]

Raising the floors after coverage improves is encouraged; lowering them
belongs in code review, not in a green CI run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "tools", "coverage_baseline.json")

# Measured floors may be beaten by up to this many percentage points of noise
# (different gcc minors attribute close-brace lines differently).
TOLERANCE = 0.5


def find_gcda(build_dir: str) -> list[str]:
    out = []
    for root, _dirs, files in os.walk(os.path.abspath(build_dir)):
        out.extend(os.path.join(root, f) for f in files if f.endswith(".gcda"))
    return sorted(out)


def gcov_json_records(gcda: str, gcov: str) -> list[dict]:
    """Run gcov on one .gcda and return the parsed JSON documents."""
    proc = subprocess.run(
        [gcov, "--json-format", "--stdout", gcda],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(gcda),
    )
    if proc.returncode != 0:
        print(f"warning: gcov failed on {gcda}: {proc.stderr.strip()}", file=sys.stderr)
        return []
    docs, decoder, text, pos = [], json.JSONDecoder(), proc.stdout, 0
    while pos < len(text):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            break
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
    return docs


def normalize(path: str) -> str | None:
    """Map a gcov source path to a repo-relative one, or None if external."""
    abspath = os.path.normpath(os.path.join(REPO_ROOT, path)) if not os.path.isabs(path) else os.path.normpath(path)
    if not abspath.startswith(REPO_ROOT + os.sep):
        return None
    return os.path.relpath(abspath, REPO_ROOT)


def collect(build_dir: str, gcov: str) -> dict[str, dict[int, bool]]:
    """repo-relative file -> {line_number: covered} unioned across all TUs."""
    gcda_files = find_gcda(build_dir)
    if not gcda_files:
        print(f"error: no .gcda files under {build_dir} — build with "
              "-DGRAPHENE_COVERAGE=ON and run ctest first", file=sys.stderr)
        sys.exit(2)
    lines: dict[str, dict[int, bool]] = {}
    for gcda in gcda_files:
        for doc in gcov_json_records(gcda, gcov):
            cwd = doc.get("current_working_directory", "")
            for frecord in doc.get("files", []):
                src = frecord.get("file", "")
                rel = normalize(src if os.path.isabs(src) else os.path.join(cwd, src))
                if rel is None:
                    continue
                per_file = lines.setdefault(rel, {})
                for line in frecord.get("lines", []):
                    num = line.get("line_number")
                    if num is None:
                        continue
                    covered = line.get("count", 0) > 0
                    per_file[num] = per_file.get(num, False) or covered
    return lines


def scope_stats(lines: dict[str, dict[int, bool]], scope: str):
    """(covered, total, per-file breakdown) for files under `scope`."""
    covered = total = 0
    per_file = []
    prefix = scope.rstrip("/") + "/"
    for rel in sorted(lines):
        if not rel.startswith(prefix):
            continue
        file_lines = lines[rel]
        c = sum(1 for hit in file_lines.values() if hit)
        t = len(file_lines)
        covered += c
        total += t
        per_file.append((rel, c, t))
    return covered, total, per_file


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", help="coverage-instrumented build directory")
    parser.add_argument("--baseline", default=BASELINE_PATH)
    parser.add_argument("--report", default=None,
                        help="also write a per-file text report here")
    parser.add_argument("--gcov", default=os.environ.get("GCOV", "gcov"))
    args = parser.parse_args()

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)

    lines = collect(args.build_dir, args.gcov)
    report_lines = []
    failed = False
    for scope, floor in sorted(baseline.items()):
        if scope.startswith("_"):
            continue  # comment keys
        covered, total, per_file = scope_stats(lines, scope)
        if total == 0:
            print(f"FAIL {scope}: no instrumented lines found (wrong build dir?)")
            failed = True
            continue
        pct = 100.0 * covered / total
        verdict = "ok" if pct >= floor - TOLERANCE else "FAIL"
        failed |= verdict == "FAIL"
        print(f"{verdict:4s} {scope}: {pct:6.2f}% line coverage "
              f"({covered}/{total} lines, floor {floor:.2f}%)")
        report_lines.append(f"{scope}: {pct:.2f}% ({covered}/{total}), floor {floor:.2f}%")
        for rel, c, t in per_file:
            if t == 0:
                continue  # header pulled in with no instrumented lines of its own
            report_lines.append(f"  {rel}: {100.0 * c / t:6.2f}% ({c}/{t})")

    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write("\n".join(report_lines) + "\n")
        print(f"per-file report written to {args.report}")

    if failed:
        print("\ncoverage gate FAILED — coverage regressed below the checked-in "
              "baseline (tools/coverage_baseline.json). Add tests for the new "
              "uncovered paths, or justify a lower floor in review.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
