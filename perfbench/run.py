#!/usr/bin/env python3
"""Runs the repository benchmark (see perfbench/README.md).

One run of one workload:

    python3 perfbench/run.py --workload serve-open --seed 1 --seconds 15 --trace 0

builds perfbench_run from source into .bench_build/ (Release), runs it and
passes its output through; the last line is the result JSON. --trace 1
makes the traced run, whose metrics are the per-layer set.

Steadiness mode runs one workload (or "all") N times back to back, with
seeds seed, seed+1, ..., and prints per end-to-end metric the median,
quartiles and relative spread next to the metric's bound from
BENCHMARK.json, plus host.steal_frac per run. --save keeps the set's values;
--against compares this set's medians with a saved set's, as a share of the
saved median, against the same bounds:

    python3 perfbench/run.py --workload all --repeat 10 --seed 1 --seconds 15 \
        --save .bench_build/set1.json
    python3 perfbench/run.py --workload all --repeat 10 --seed 101 --seconds 15 \
        --against .bench_build/set1.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_run"
TRACES = ROOT / ".bench_build" / "traces"
WORKLOADS = ("batch-exact", "serve-open", "ingest-rw")
# perfbench_run ends itself at 150 s (its watchdog); this is the backstop.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds perfbench_run; exits 2 on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "perfbench-build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench_run",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path})")
    cache = (BUILD / "CMakeCache.txt").read_text(errors="replace")
    if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache:
        fail("the benchmark build is not Release; refusing to measure")


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_once(workload, seed, seconds, trace, sha, echo=True):
    """Runs perfbench_run once; returns (result, record) parsed from its
    last two lines. Exits with its code if it fails."""
    TRACES.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-sha", sha, "--out-dir", str(TRACES)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s", 3)
    if proc.stderr:
        print(proc.stderr, end="", file=sys.stderr)
    if proc.returncode != 0:
        fail(f"perfbench_run exited with {proc.returncode}", proc.returncode)
    lines = proc.stdout.rstrip("\n").splitlines()
    if echo:
        print("\n".join(lines), flush=True)
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def spread_table(workload, runs, bounds, better, baseline):
    """Median, quartiles and (q3 - q1) / median of every end-to-end metric:
    the bounded ones from BENCHMARK.json, then the unbounded tails that
    each run's record carries. With a baseline set (metric -> values), also
    how much worse this median is than the baseline's, as a share of the
    baseline's. Returns False if a bounded spread or change exceeds its
    bound."""
    print(f"\n== {workload}: {len(runs)} runs, seeds "
          f"{runs[0][1]['seed']}..{runs[-1][1]['seed']}")
    for result, record in runs:
        m = record["metrics"]
        print(f"  seed {record['seed']:>4}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"steal={m['host.steal_frac']['value']:.4f} "
              f"probe_ms={m['host.probe_ms']['value']:.3f}")
    tails = [n for n in runs[0][1]["metrics"] if "." not in n and n not in bounds]
    print(f"  {'metric':<22}{'unit':<11}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'worse':>9}{'bound':>7}  samples(min)")
    steady = True
    for name in list(bounds) + tails:
        values = [r[1]["metrics"][name]["value"] for r in runs]
        samples = min(r[1]["metrics"][name]["samples"] for r in runs)
        unit = runs[0][1]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        worse = None
        if baseline and name in baseline and name in better:
            base = statistics.median(baseline[name])
            sign = 1 if better[name] == "lower" else -1
            worse = sign * (med - base) / base if base else float("inf")
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            if spread > bound or (worse is not None and worse > bound):
                steady = False
                mark = "  <-- over bound"
            elif spread > bound / 3:
                mark = "  <-- spread over bound/3"
        shown = f"{bound:.2f}" if bound is not None else "-"
        shown_worse = f"{worse:.4f}" if worse is not None else "-"
        print(f"  {name:<22}{unit:<11}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>9.4f}{shown_worse:>9}{shown:>7}  {samples}{mark}")
    return steady


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="steadiness mode: runs per workload")
    ap.add_argument("--save", type=Path,
                    help="steadiness mode: write the set's values here")
    ap.add_argument("--against", type=Path,
                    help="steadiness mode: compare with a set saved by --save")
    args = ap.parse_args()
    if args.repeat < 2 and (args.workload == "all" or args.save or args.against):
        fail("--workload all, --save and --against need --repeat N "
             "(steadiness mode)")

    build()
    sha = git_sha()
    if args.repeat < 2:
        run_once(args.workload, args.seed, args.seconds, args.trace, sha)
        return

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    baseline = json.loads(args.against.read_text()) if args.against else {}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    steady = True
    saved = {}
    for workload in workloads:
        runs = [run_once(workload, args.seed + i, args.seconds, 0, sha,
                         echo=False) for i in range(args.repeat)]
        steady &= spread_table(workload, runs, bounds, better,
                               baseline.get(workload))
        saved[workload] = {name: [r[1]["metrics"][name]["value"] for r in runs]
                           for name in runs[0][1]["metrics"]}
        if args.save:
            args.save.write_text(json.dumps(saved, indent=1) + "\n")
    print("\nall spreads and changes within their bounds" if steady
          else "\nSOME SPREADS OR CHANGES EXCEED THEIR BOUNDS")


if __name__ == "__main__":
    main()
