#!/usr/bin/env python3
"""Same-host A/B perf gate: the working tree against a base revision.

Usage: scripts/ab.py BASE_REV TARGET...

A TARGET is a bench binary name (bench/<name>.cc) or a perfbench
workload name. BASE_REV is built in a detached git worktree under the
git-ignored .ab/ directory, which later runs reuse; the change side is
the working tree's build/ (the default preset). Nothing is fetched.

Each target runs PAIRS alternating pairs: every pair runs both sides
back to back, and the side that runs first alternates from pair to
pair, so slow drift of the host hits both sides alike. The timed
number is wall clock:

  - a bench runs at --jobs=1 in its own run directory per side, and
    its fresh BENCH_<name>.json record's `wall_seconds` is timed. The
    record is deleted before every run, so a bench that writes none,
    or writes one for another artifact, or one without a positive
    wall time, fails the gate instead of being read stale;
  - a perfbench workload runs through that tree's own perfbench/run.py
    at seed 1 for RUN_SECONDS, and its result's `wall_s` is timed.
    A run with failed operations fails the gate.

For each target the report prints both sides' median and IQR, the
median of the per-pair change/base ratios and how many pairs the
change lost (ran slower). The verdict is judge()'s. For a bench it
also prints both sides' `events_dispatched` from the same records:
the count is deterministic, so an exact change in the simulator's
work shows even where the wall-time verdict is `unresolved`. The script exits
1 on a regression, on a run that exits nonzero, and on a missing or
wrong record; a target whose base runs are too noisy to tell is
printed as `unresolved`, which is not a failure.

The doctests are a tier-1 ctest: python3 -m doctest scripts/ab.py
"""

import collections
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
BOUND = 1.10        # a median change/base ratio above this is slower...
LOSSES_TO_FAIL = 8  # ...and a regression if the change lost this many pairs
NOISE = 0.10        # base IQR over base median above this: unresolved
RUN_SECONDS = 2     # perfbench run length

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".ab")
BASE_TREE = os.path.join(AB_DIR, "base")

Verdict = collections.namedtuple("Verdict", "status ratio lost")


def iqr(xs):
    """Interquartile range of @xs.

    >>> iqr([1, 2, 3, 4, 5])
    2.0
    """
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def judge(base, change):
    """Verdict on paired wall times: base[i] and change[i] are pair i.

    `regression` when the median per-pair change/base ratio exceeds
    BOUND and the change was slower in at least LOSSES_TO_FAIL pairs;
    otherwise `unresolved` when the base runs' IQR exceeds NOISE of
    their median; otherwise `ok`.

    A uniform 15% slowdown fails:

    >>> judge([1.0] * 10, [1.15] * 10).status
    'regression'

    Alternating +-8% noise passes:

    >>> judge([1.0] * 10, [1.08, 0.92] * 5)
    Verdict(status='ok', ratio=1.0, lost=5)

    One slow outlier in ten pairs passes:

    >>> judge([1.0] * 10, [1.0] * 9 + [3.0])
    Verdict(status='ok', ratio=1.0, lost=1)

    A base whose runs spread too widely cannot tell:

    >>> judge([0.8, 1.2] * 5, [0.8, 1.2] * 5).status
    'unresolved'
    """
    ratio = statistics.median(c / b for b, c in zip(base, change))
    lost = sum(c > b for b, c in zip(base, change))
    if ratio > BOUND and lost >= LOSSES_TO_FAIL:
        return Verdict("regression", ratio, lost)
    if iqr(base) > NOISE * statistics.median(base):
        return Verdict("unresolved", ratio, lost)
    return Verdict("ok", ratio, lost)


class GateError(Exception):
    """A run that makes the comparison void: the gate fails."""


def sh(cmd, cwd, **kw):
    return subprocess.run(cmd, cwd=cwd, check=True, **kw)


def checkout_base(rev):
    """Check @rev out, detached, in the reused .ab/base worktree."""
    sha = sh(["git", "rev-parse", "--verify", rev + "^{commit}"], ROOT,
             stdout=subprocess.PIPE, text=True).stdout.strip()
    sh(["git", "worktree", "prune"], ROOT)
    if os.path.exists(os.path.join(BASE_TREE, ".git")):
        sh(["git", "checkout", "--quiet", "--force", "--detach", sha],
           BASE_TREE)
    else:
        sh(["git", "worktree", "add", "--quiet", "--detach", BASE_TREE,
            sha], ROOT)
    return sha


def is_bench(tree, target):
    return os.path.exists(os.path.join(tree, "bench", target + ".cc"))


def build(tree, targets):
    """Build @targets' bench binaries in @tree with the default preset
    (perfbench/run.py builds its own binary)."""
    benches = [t for t in targets if is_bench(tree, t)]
    if not benches:
        return
    sh(["cmake", "--preset", "default"], tree, stdout=subprocess.DEVNULL)
    sh(["cmake", "--build", "--preset", "default", "-j",
        str(os.cpu_count() or 1), "--target", *benches], tree,
       stdout=subprocess.DEVNULL)


def events_line(target, base, change):
    """Report line of both sides' events_dispatched for bench @target,
    from the counts of its runs (@base, @change).

    >>> events_line("fig9_training_throughput", [7920000] * 10,
    ...             [3130000] * 10)
    'ab: fig9_training_throughput: events_dispatched base 7920000, change 3130000 (0.395x)'
    >>> events_line("fig2_convergence", [0] * 10, [0] * 10)
    'ab: fig2_convergence: events_dispatched base 0, change 0'

    A side whose runs disagree prints its range:

    >>> events_line("fleet_scaling", [5, 5, 6], [5, 5, 5])
    'ab: fleet_scaling: events_dispatched base 5..6, change 5'
    """
    def span(xs):
        lo, hi = min(xs), max(xs)
        return str(lo) if lo == hi else f"{lo}..{hi}"
    line = (f"ab: {target}: events_dispatched base {span(base)}, "
            f"change {span(change)}")
    if len(set(base)) == 1 and len(set(change)) == 1 and base[0] > 0:
        line += f" ({change[0] / base[0]:.3g}x)"
    return line


def time_bench(tree, side, target):
    """Wall seconds and events_dispatched from one fresh BENCH record
    of bench @target."""
    run_dir = os.path.join(AB_DIR, "run", side, target)
    os.makedirs(run_dir, exist_ok=True)
    record_path = os.path.join(run_dir, f"BENCH_{target}.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    exe = os.path.join(tree, "build", "bench", target)
    proc = subprocess.run([exe, "--jobs=1"], cwd=run_dir,
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise GateError(f"{side} {target} exited {proc.returncode}")
    try:
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError) as e:
        raise GateError(f"{side} {target} wrote no readable BENCH "
                        f"record: {e}") from e
    if record.get("artifact") != target:
        raise GateError(f"{side} {target}'s record names artifact "
                        f"{record.get('artifact')!r}")
    wall = record.get("wall_seconds")
    if not isinstance(wall, (int, float)) or wall <= 0:
        raise GateError(f"{side} {target}'s record has no positive "
                        f"wall_seconds ({wall!r})")
    events = record.get("events_dispatched")
    if not isinstance(events, int) or events < 0:
        raise GateError(f"{side} {target}'s record has no "
                        f"events_dispatched count ({events!r})")
    return float(wall), events


def time_perfbench(tree, side, target):
    """wall_s of one perfbench run of workload @target in @tree, and
    None for the event count (perfbench reports its own)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", target, "--seed", "1", "--seconds",
         str(RUN_SECONDS)], cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise GateError(f"{side} perfbench {target} exited "
                        f"{proc.returncode}")
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
        wall = float(result["metrics"]["wall_s"]["value"])
        failed = int(result["failed"])
    except (IndexError, KeyError, TypeError, ValueError) as e:
        raise GateError(f"{side} perfbench {target} printed no result: "
                        f"{e}") from e
    if failed:
        raise GateError(f"{side} perfbench {target}: {failed} failed "
                        "operations")
    return wall, None


def compare(target):
    """Run PAIRS alternating pairs of @target; return the verdict."""
    trees = {"base": BASE_TREE, "change": ROOT}
    timer = time_bench if is_bench(ROOT, target) else time_perfbench
    times = {"base": [], "change": []}
    events = {"base": [], "change": []}
    for i in range(PAIRS):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            wall, n = timer(trees[side], side, target)
            times[side].append(wall)
            events[side].append(n)
    v = judge(times["base"], times["change"])
    print(f"ab: {target}: base {statistics.median(times['base']):.4g} s "
          f"(IQR {iqr(times['base']):.3g}), change "
          f"{statistics.median(times['change']):.4g} s "
          f"(IQR {iqr(times['change']):.3g}), ratio {v.ratio:.3f}, "
          f"lost {v.lost}/{PAIRS}: {v.status}", flush=True)
    if events["base"][0] is not None:
        print(events_line(target, events["base"], events["change"]),
              flush=True)
    return v


def main(argv):
    if len(argv) < 3 or argv[1].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev, targets = argv[1], argv[2:]
    try:
        sha = checkout_base(rev)
        print(f"ab: base {rev} = {sha[:12]} in {BASE_TREE}", flush=True)
        build(BASE_TREE, targets)
        build(ROOT, targets)
        verdicts = {t: compare(t) for t in targets}
    except (GateError, subprocess.CalledProcessError, OSError) as e:
        print(f"ab: FAIL: {e}", file=sys.stderr)
        return 1
    slower = [t for t, v in verdicts.items() if v.status == "regression"]
    if slower:
        print(f"ab: FAIL: regression in {' '.join(slower)}",
              file=sys.stderr)
        return 1
    print("ab: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
