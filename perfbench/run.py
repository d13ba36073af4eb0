#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench under the repository root.
The last stdout line of a single-workload run is the result JSON; with
--trace 0 its setup_s is the median of SETUP_SAMPLES set-ups, each in a
fresh process (the library caches the design-space sweep per process,
so a second set-up in one process would measure the cache). README.md
in this directory documents the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RECORDED = os.path.join(HERE, "recorded_digests.txt")
WORKLOADS = ["chip_colocated", "fleet_route", "overload_chaos", "hbfp_train"]
SETUP_SAMPLES = 9


def build(target):
    """Configure once, then (re)build @target; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def setup_time(exe, workload, seed):
    """Set-up seconds of one fresh perfbench process."""
    probe = subprocess.run([exe, "--workload", workload, "--seed", str(seed),
                            "--setup-only"],
                           stdout=subprocess.PIPE, text=True, check=True,
                           timeout=120)
    return json.loads(probe.stdout.splitlines()[-1])["setup_s"]


def run_one(exe, workload, seed, seconds, trace):
    """Run one workload; print its report and, last, its result JSON."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--recorded", RECORDED]
    if trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, f"spans-{workload}-seed{seed}.json")]
    # Half the extra set-up samples run before the measured run and half
    # after, so they sample the host over the same stretch of time.
    extra = 0 if trace else SETUP_SAMPLES - 1
    samples = [setup_time(exe, workload, seed) for _ in range(extra // 2)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=seconds + 150).stdout.splitlines()
    result = json.loads(out[-1])
    if not trace:
        samples.append(result["metrics"]["setup_s"]["value"])
        samples += [setup_time(exe, workload, seed)
                    for _ in range(extra - extra // 2)]
        setup_s = statistics.median(samples)
        result["metrics"]["setup_s"]["value"] = setup_s
        out.insert(-1, f"  setup_s median of {len(samples)} processes: "
                       f"{setup_s:.6g} s")
    print("\n".join(out[:-1]))
    print(json.dumps(result), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    try:
        if args.selftest:
            subprocess.run([build("perfbench_tests")], check=True)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        exe = build("perfbench")
        names = WORKLOADS if args.workload == "all" else [args.workload]
        for name in names:
            run_one(exe, name, args.seed, args.seconds, args.trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError, IndexError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
