#!/usr/bin/env python3
"""Per-directory line-coverage rollup for the coverage preset.

Walks a --coverage build tree for .gcda files, asks gcov for JSON
intermediate records, merges per-source-line execution counts across
translation units (a header line is covered if ANY including TU ran
it), and prints a per-directory table of line coverage under src/.

Exits nonzero when a gated directory falls below its gate (default:
src/obs, src/cluster, src/fault, src/mem, src/arith, src/sim, src/nn,
src/stats, src/common, src/workload, and src/core at 90% lines), so
`scripts/check.sh --coverage` fails the build instead of silently
shipping untested export, fleet-simulation, resilience control-plane,
memory-hierarchy, arithmetic-kernel, event-kernel, training,
statistics, shared utility, workload-compiler, or experiment-driver
code.

Usage: scripts/coverage_report.py [build_dir] [--gate-dir src/obs]...
                                  [--gate-pct 90]

--gate-dir is repeatable; every named directory must clear --gate-pct.
"""

import argparse
import collections
import json
import os
import subprocess
import sys


def find_gcda(build_dir):
    for root, _dirs, files in os.walk(build_dir):
        for name in files:
            if name.endswith(".gcda"):
                yield os.path.join(root, name)


def gcov_json(gcda, build_dir):
    """One gcov JSON document per .gcda, or None when gcov fails."""
    try:
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--object-directory",
             os.path.dirname(gcda), gcda],
            cwd=build_dir, capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"coverage_report: gcov failed on {gcda}: {e}",
              file=sys.stderr)
        return None
    # --stdout emits one JSON document per line (one per source file
    # batch); every line parses independently.
    docs = []
    for line in out.stdout.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            docs.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    return docs


def merge_counts(docs, repo_root, line_hits):
    """Fold gcov 'files' records into {source: {line: max_count}}."""
    for doc in docs:
        for frec in doc.get("files", []):
            src = frec.get("file", "")
            src = os.path.normpath(
                src if os.path.isabs(src)
                else os.path.join(repo_root, src))
            if not src.startswith(repo_root + os.sep):
                continue
            rel = os.path.relpath(src, repo_root)
            if not rel.startswith("src" + os.sep):
                continue
            hits = line_hits[rel]
            for lrec in frec.get("lines", []):
                n = lrec.get("line_number")
                c = lrec.get("count", 0)
                if n is None:
                    continue
                hits[n] = max(hits.get(n, 0), c)


def directory_of(rel_path):
    """Rollup key: the first two components (e.g. 'src/obs')."""
    parts = rel_path.split(os.sep)
    return os.sep.join(parts[:2]) if len(parts) > 2 else parts[0]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("build_dir", nargs="?", default="build-coverage")
    ap.add_argument("--gate-dir", action="append", default=None,
                    help="directory that must clear --gate-pct "
                         "(repeatable; default: src/obs, src/cluster, "
                         "src/fault, src/mem, src/arith, src/sim, "
                         "src/nn, src/stats, src/common, src/workload, "
                         "src/core)")
    ap.add_argument("--gate-pct", type=float, default=90.0)
    args = ap.parse_args()
    gate_dirs = args.gate_dir or ["src/obs", "src/cluster", "src/fault",
                                  "src/mem", "src/arith", "src/sim",
                                  "src/nn", "src/stats", "src/common",
                                  "src/workload", "src/core"]

    repo_root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(repo_root, args.build_dir) \
        if not os.path.isabs(args.build_dir) else args.build_dir
    if not os.path.isdir(build_dir):
        print(f"coverage_report: no build dir {build_dir}",
              file=sys.stderr)
        return 2

    gcda_files = list(find_gcda(build_dir))
    if not gcda_files:
        print(f"coverage_report: no .gcda under {build_dir} "
              "(build with the coverage preset and run ctest first)",
              file=sys.stderr)
        return 2

    line_hits = collections.defaultdict(dict)
    for gcda in gcda_files:
        docs = gcov_json(gcda, build_dir)
        if docs:
            merge_counts(docs, repo_root, line_hits)

    per_dir = collections.defaultdict(lambda: [0, 0])  # [covered, total]
    for rel, hits in line_hits.items():
        d = per_dir[directory_of(rel)]
        d[0] += sum(1 for c in hits.values() if c > 0)
        d[1] += len(hits)

    if not per_dir:
        print("coverage_report: gcov produced no line records",
              file=sys.stderr)
        return 2

    print(f"{'directory':<20} {'lines':>8} {'covered':>8} {'pct':>7}")
    print("-" * 46)
    total_cov = total_lines = 0
    gate_pct_seen = {}
    for name in sorted(per_dir):
        covered, total = per_dir[name]
        pct = 100.0 * covered / total if total else 0.0
        total_cov += covered
        total_lines += total
        if name in gate_dirs:
            gate_pct_seen[name] = pct
        print(f"{name:<20} {total:>8} {covered:>8} {pct:>6.1f}%")
    print("-" * 46)
    overall = 100.0 * total_cov / total_lines if total_lines else 0.0
    print(f"{'total':<20} {total_lines:>8} {total_cov:>8} "
          f"{overall:>6.1f}%")

    failed = False
    for gate_dir in gate_dirs:
        pct = gate_pct_seen.get(gate_dir)
        if pct is None:
            print(f"coverage_report: FAIL -- no coverage data for gated "
                  f"directory {gate_dir}", file=sys.stderr)
            failed = True
        elif pct < args.gate_pct:
            print(f"coverage_report: FAIL -- {gate_dir} line coverage "
                  f"{pct:.1f}% < gate {args.gate_pct:.1f}%",
                  file=sys.stderr)
            failed = True
        else:
            print(f"coverage_report: OK -- {gate_dir} "
                  f"{pct:.1f}% >= {args.gate_pct:.1f}%")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
