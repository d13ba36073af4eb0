#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full tier1 test suite,
# optionally under AddressSanitizer/UBSan, plus a formatting check when
# clang-format is available.
#
# Usage:
#   scripts/check.sh             # default preset (RelWithDebInfo) + tests
#   scripts/check.sh --asan      # ALSO build + test the asan-ubsan preset
#   scripts/check.sh --tsan      # ALSO build the tsan preset and run the
#                                # "parallel"-labelled sweep-engine tests
#   scripts/check.sh --coverage  # build+test the coverage preset, then
#                                # print per-directory line coverage and
#                                # fail if src/obs/, src/cluster/,
#                                # src/fault/, src/mem/, src/arith/,
#                                # src/sim/, src/nn/, src/stats/,
#                                # src/common/, src/workload/, or
#                                # src/core/ is below 90%
#   scripts/check.sh --resilience # only the overload-resilience
#                                # control-plane + chaos suites
#   scripts/check.sh --fleet     # only the fleet-tier suites
#                                # (hierarchical routing, SLO
#                                # autoscaler, traffic mixes)
#   scripts/check.sh --mem       # only the memory-hierarchy suites
#                                # (unit+property tier and the
#                                # passthrough/differential tier)
#   scripts/check.sh --bench-smoke [BASE_REV]
#                                # A/B the perf-tracking benches (fig2,
#                                # fig6, fig7, fig9, fig10, table1,
#                                # event kernel, cluster scaling,
#                                # overload resilience, fleet scaling,
#                                # memory hierarchy, fault tolerance)
#                                # against BASE_REV
#                                # (default HEAD) with scripts/ab.py:
#                                # 10 alternating same-host pairs of
#                                # --jobs=1 wall time each; fails on a
#                                # >10% median slowdown in >= 8 of 10
#                                # pairs, a bench that exits nonzero, or
#                                # a missing or wrong BENCH record; it
#                                # also prints each side's
#                                # events_dispatched
#   scripts/check.sh --perfbench # build perfbench from source and run
#                                # its selftest (python3 perfbench/run.py
#                                # --selftest): the traced cluster
#                                # replay must equal Cluster::run; then
#                                # run all four workloads at seeds 1-3
#                                # for 1 s each and fail if any
#                                # operation's output digest differs
#                                # from perfbench/recorded_digests.txt
#                                # ("failed" > 0)
#   scripts/check.sh --format    # only run the clang-format check
#
# The "resilience" ctest label is a subset of tier1, so the default run
# (and the asan/tsan presets, via the tier1/parallel labels) already
# exercises the control-plane suites; --resilience is the fast loop.
#
# Exits nonzero on the first failure.

set -euo pipefail
cd "$(dirname "$0")/.."

run_format_check() {
    # The container image may not ship clang-format; the style gate is
    # advisory there and must not fail the tier-1 run.
    local cf
    cf=$(command -v clang-format || true)
    if [ -z "$cf" ]; then
        echo "check.sh: clang-format not found; skipping format check"
        return 0
    fi
    echo "check.sh: clang-format check ($cf)"
    local bad=0
    while IFS= read -r f; do
        if ! "$cf" --dry-run --Werror "$f" >/dev/null 2>&1; then
            echo "  needs formatting: $f"
            bad=1
        fi
    done < <(git ls-files '*.cc' '*.hh')
    if [ "$bad" -ne 0 ]; then
        echo "check.sh: formatting violations (run clang-format -i)"
        return 1
    fi
    echo "check.sh: formatting clean"
}

run_preset() {
    local preset="$1"
    local label="${2:-tier1}"
    echo "check.sh: configure+build+test preset '$preset'"
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$(nproc)"
    ctest --preset "$preset" -L "$label" -j "$(nproc)"
}

run_bench_smoke() {
    # Perf-regression gate: same-host alternating pairs of the working
    # tree against a base revision (scripts/ab.py builds both sides).
    # fig9 and fault_tolerance run co-located training (fault_tolerance
    # on the eager path a fault plan selects), and fig10 runs it under
    # all four scheduling policies; fig2 dispatches no events; fig6
    # and table1 are almost all design-space sweep.
    python3 scripts/ab.py "${1:-HEAD}" fig7_inference_latency \
        event_kernel cluster_scaling overload_resilience fleet_scaling \
        memory_hierarchy fig9_training_throughput fault_tolerance \
        fig2_convergence fig10_scheduling fig6_design_space table1_pareto
}

run_perfbench() {
    python3 perfbench/run.py --selftest
    local seed
    for seed in 1 2 3; do
        echo "check.sh: perfbench workloads, seed $seed"
        python3 perfbench/run.py --workload all --seed "$seed" \
            --seconds 1 | python3 -c '
import json, sys
results = []
for line in sys.stdin:
    print(line, end="")
    if line.startswith("{"):
        results.append(json.loads(line))
ok = len(results) == 4 and all(r["failed"] == 0 for r in results)
sys.exit(0 if ok else 1)
'
    done
}

case "${1:-}" in
  --format)
    run_format_check
    ;;
  --asan)
    run_format_check
    run_preset default
    run_preset asan-ubsan
    ;;
  --tsan)
    run_format_check
    run_preset default
    run_preset tsan parallel
    ;;
  --coverage)
    run_format_check
    run_preset coverage
    echo "check.sh: per-directory line coverage" \
         "(gates: src/obs, src/cluster, src/fault, src/mem, src/arith," \
         "src/sim, src/nn, src/stats, src/common, src/workload," \
         "src/core >= 90%)"
    python3 scripts/coverage_report.py build-coverage
    ;;
  --resilience)
    run_preset default resilience
    ;;
  --fleet)
    run_preset default fleet
    ;;
  --mem)
    run_preset default mem
    ;;
  --bench-smoke)
    run_bench_smoke "${2:-}"
    ;;
  --perfbench)
    run_perfbench
    ;;
  "")
    run_format_check
    run_preset default
    ;;
  *)
    echo "usage: scripts/check.sh" \
         "[--asan|--tsan|--coverage|--resilience|--fleet|--mem|--bench-smoke [BASE_REV]|--perfbench|--format]" >&2
    exit 2
    ;;
esac

echo "check.sh: OK"
