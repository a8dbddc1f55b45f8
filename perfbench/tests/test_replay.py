#!/usr/bin/env python3
"""Replay and schema check of the benchmark on real runs.

For each workload (default: all three) it makes two traced runs and one
untraced run with the same seed, at BENCHMARK.json's run_seconds, and
checks that
  * the rbc.* counts (not the timed rbc.speedup_vs_bruteforce),
    net.bytes_* and index_bytes_per_row repeat exactly;
  * each result line has exactly the keys correct/attempted/failed/metrics,
    and its metrics are BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) names with their units;
  * every latency metric in the record has at least 1,000 samples;
  * the untraced run is correct with no failed operation.

    python3 perfbench/tests/test_replay.py [workload ...]

Takes about five minutes for all three workloads.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
REPLAYED = ("rbc.", "net.bytes_", "index_bytes_per_row")


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def check_schema(result, record, trace, problems):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"trace={trace}: metrics {got} != {want}")
    for name, m in record["metrics"].items():
        if "latency_p" in name and "." not in name and m["samples"] < 1000:
            problems.append(f"{name}: {m['samples']} samples < 1000")


def main():
    workloads = sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]
    problems = []
    for workload in workloads:
        first, rec1 = run(workload, 1)
        second, rec2 = run(workload, 1)
        plain, rec0 = run(workload, 0)
        for result, record, trace in ((first, rec1, 1), (plain, rec0, 0)):
            check_schema(result, record, trace, problems)
        if not plain["correct"] or plain["failed"]:
            problems.append(f"{workload}: untraced run correct={plain['correct']} "
                            f"failed={plain['failed']}")
        replayed = sorted(n for n in rec1["metrics"]
                          if n.startswith(REPLAYED) and "speedup" not in n)
        for name in replayed:
            a, b = rec1["metrics"][name]["value"], rec2["metrics"][name]["value"]
            status = "same" if a == b else "DIFFERS"
            print(f"{workload:12} {name:32} {a!r:>22} {b!r:>22} {status}")
            if a != b:
                problems.append(f"{workload}: {name} {a} != {b}")
    for p in problems:
        print("FAIL:", p)
    print("OK" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
