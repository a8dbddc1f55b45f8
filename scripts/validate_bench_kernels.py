#!/usr/bin/env python3
"""Schema + perf validation for BENCH_kernels.json (bench/micro_kernels.cpp).

Usage: scripts/validate_bench_kernels.py [--smoke] [path/to/BENCH_kernels.json]

The file is google-benchmark JSON; the dispatched-kernel benchmarks are
named "<shape>/<isa>/<d>" with items_per_second = distance evaluations per
second, plus the per-query scalar baseline "scalar_scan/ref/<d>". Full runs
repeat every benchmark and report aggregates only; the validator reads the
median aggregate where one is present, else the single iteration row.

Checks:
  * stamp: the context carries the rbc build stamp (rbc_build_type,
    rbc_git_sha, rbc_active_isa, rbc_nproc); full runs must come from a
    Release build and no row may use more threads than rbc_nproc;
  * schema: context + benchmarks present, every dispatched row has a
    parseable name and a positive items_per_second;
  * coverage: every shape (tile, tile_gemm, rows, rows_l1, rows_ip,
    rows_fp16, rows_int8 and the three stream_* shapes) x all three paper
    dims, and l2_lanes at its four, for every ISA that appears; the scalar ISA
    always appears (hosts without AVX2/AVX-512 simply lack those rows —
    accepted);
  * perf (full runs only; --smoke skips the bars, whose tiny iteration
    counts make timings meaningless): for every SIMD ISA present, each
    shape beats its scalar single-query scan per evaluation at every dim,
    and the row-blocked single-query kernels — squared-L2 `rows` and the
    metric sweep's `rows_l1`/`rows_ip` — reach >= 2x, the acceptance bars
    of the runtime-dispatch and metric-generic-API PRs. The metric shapes
    compare against their own baselines (scalar_scan_l1 / scalar_scan_ip).
    The compressed tier's per-vector-byte bar reads the stream shapes:
    `stream_rows`/`stream_fp16`/`stream_int8` run the float, fp16 and int8
    row kernels over 64Ki rows (past a per-core L2; the 1024-row entries
    stay in L2, where both scans are bound by arithmetic, not bytes). On
    the SIMD ISAs each compressed stream shape carries a
    qps_per_vector_byte counter and is held against `stream_rows` of the
    same ISA: fp16 >= 1x, int8 >= 2x (bytes/vector: 4d float32, 2d fp16,
    1d int8).
    The bit-exact `l2_lanes` shape (the exact RBC's BF(X, R) and stage 1)
    is held to >= 3x per evaluation over the per-pair Euclidean loop it
    replaces ("euclid_scan/ref/<d>") on every SIMD ISA, at d = 21, 32, 54
    and 74.
"""
import json
import sys
from pathlib import Path

SHAPES = ("tile", "tile_gemm", "rows", "rows_l1", "rows_ip",
          "rows_fp16", "rows_int8")
# Which scalar single-query baseline each shape's items/s is compared to.
BASELINE_OF = {
    "tile": "scalar_scan",
    "tile_gemm": "scalar_scan",
    "rows": "scalar_scan",
    "rows_l1": "scalar_scan_l1",
    "rows_ip": "scalar_scan_ip",
    "rows_fp16": "scalar_scan",
    "rows_int8": "scalar_scan",
}
BASELINES = tuple(sorted(set(BASELINE_OF.values())))
# Shapes held to the >= 2x acceptance bar over their baseline.
TWO_X_SHAPES = ("rows", "rows_l1", "rows_ip")
# The compressed tier's per-byte comparison runs the float, fp16 and int8
# row kernels over a working set past L2 (bench/micro_kernels.cpp,
# kStreamRows): the tier exists to cut bytes per vector, which only sets
# the scan rate once the rows no longer sit in cache. The compressed stream
# shapes carry a qps_per_vector_byte counter; their bar is throughput per
# vector byte relative to `stream_rows` of the same ISA (bytes/vector:
# float32 = 4d, fp16 = 2d, int8 = 1d).
STREAM_FLOAT = "stream_rows"
QUANT_SHAPES = ("stream_fp16", "stream_int8")
STREAM_SHAPES = (STREAM_FLOAT,) + QUANT_SHAPES
BYTES_PER_DIM = {STREAM_FLOAT: 4.0, "stream_fp16": 2.0, "stream_int8": 1.0}
# int8 halves-then-halves the scan's byte traffic; the acceptance bar of the
# compressed-tier PR. fp16 must at least break even per byte.
QPVB_BAR = {"stream_fp16": 1.0, "stream_int8": 2.0}
DIMS = ("21", "32", "74")
# The bit-exact lane shape, its per-pair baseline, dims and bar.
LANE_SHAPE = "l2_lanes"
LANE_BASELINE = "euclid_scan"
LANE_DIMS = ("21", "32", "54", "74")
LANE_BAR = 3.0
STAMP_KEYS = ("rbc_build_type", "rbc_git_sha", "rbc_active_isa", "rbc_nproc")

args = [a for a in sys.argv[1:] if a != "--smoke"]
smoke = "--smoke" in sys.argv[1:]
path = Path(args[0] if args else "BENCH_kernels.json")
errors: list[str] = []

try:
    doc = json.loads(path.read_text(encoding="utf-8"))
except (OSError, json.JSONDecodeError) as exc:
    print(f"cannot read {path}: {exc}")
    sys.exit(1)


def expect(cond: bool, message: str) -> None:
    if not cond:
        errors.append(message)


context = doc.get("context")
expect(isinstance(context, dict), "missing google-benchmark context")
context = context if isinstance(context, dict) else {}
for key in STAMP_KEYS:
    expect(isinstance(context.get(key), str) and context[key] != "",
           f"context.{key} missing (host/build stamp)")
nproc = int(context["rbc_nproc"]) if str(
    context.get("rbc_nproc", "")).isdigit() else 0
expect(nproc >= 1, "context.rbc_nproc is not a positive core count")
if not smoke:
    expect(context.get("rbc_build_type") == "Release",
           f"full run from a {context.get('rbc_build_type')!r} build, "
           "not Release")
benches = doc.get("benchmarks")
expect(isinstance(benches, list) and benches, "missing benchmarks array")

# name -> items_per_second for the dispatched shapes and the baseline.
throughput: dict[tuple[str, str, str], float] = {}
for row in benches or []:
    name = row.get("name", "")
    if row.get("run_type") == "aggregate":
        if row.get("aggregate_name") != "median":
            continue  # mean / stddev / cv rows
        name = row.get("run_name", name)
    # Fixed-iteration runs (--smoke) carry an "/iterations:N" suffix.
    threads = row.get("threads", 1)
    expect(not nproc or threads <= nproc,
           f"{name}: {threads} threads on a {nproc}-core host")
    parts = [p for p in name.split("/") if not p.startswith("iterations:")]
    if len(parts) != 3 or parts[0] not in (SHAPES + BASELINES +
                                          STREAM_SHAPES +
                                          (LANE_SHAPE, LANE_BASELINE)):
        continue  # static micro-benchmarks (BM_*) are not validated here
    shape, isa, dim = parts
    ips = row.get("items_per_second")
    expect(isinstance(ips, (int, float)) and ips > 0,
           f"{name}: missing or non-positive items_per_second")
    if isinstance(ips, (int, float)):
        throughput[(shape, isa, dim)] = float(ips)
    if shape in QUANT_SHAPES:
        qpvb = row.get("qps_per_vector_byte")
        expect(isinstance(qpvb, (int, float)) and qpvb > 0,
               f"{name}: missing or non-positive qps_per_vector_byte")

isas = sorted({isa for (_, isa, _) in throughput} - {"ref"})
expect("scalar" in isas, "scalar ISA rows missing (always compiled)")
for dim in DIMS:
    for baseline in BASELINES:
        expect((baseline, "ref", dim) in throughput,
               f"baseline {baseline}/ref/{dim} missing")
for isa in isas:
    for shape in SHAPES + STREAM_SHAPES:
        for dim in DIMS:
            expect((shape, isa, dim) in throughput,
                   f"{shape}/{isa}/{dim} missing")
for dim in LANE_DIMS:
    expect((LANE_BASELINE, "ref", dim) in throughput,
           f"baseline {LANE_BASELINE}/ref/{dim} missing")
    for isa in isas:
        expect((LANE_SHAPE, isa, dim) in throughput,
               f"{LANE_SHAPE}/{isa}/{dim} missing")

if not smoke and not errors:
    for isa in isas:
        if isa == "scalar":
            continue  # the scalar table IS the baseline's class
        for dim in DIMS:
            for shape in SHAPES:
                base = throughput[(BASELINE_OF[shape], "ref", dim)]
                ratio = throughput[(shape, isa, dim)] / base
                expect(ratio >= 1.0,
                       f"{shape}/{isa}/{dim}: {ratio:.2f}x — SIMD shape "
                       f"slower than {BASELINE_OF[shape]}")
                if shape in TWO_X_SHAPES:
                    expect(ratio >= 2.0,
                           f"{shape}/{isa}/{dim}: {ratio:.2f}x < 2x "
                           f"acceptance bar over {BASELINE_OF[shape]}")
    # Bit-exact lane bar: the same bits as the per-pair Euclidean loop, so
    # the whole gain must come from running 8/16 pairs per instruction.
    for isa in isas:
        if isa == "scalar":
            continue
        for dim in LANE_DIMS:
            ratio = (throughput[(LANE_SHAPE, isa, dim)] /
                     throughput[(LANE_BASELINE, "ref", dim)])
            expect(ratio >= LANE_BAR,
                   f"{LANE_SHAPE}/{isa}/{dim}: {ratio:.2f}x < {LANE_BAR}x "
                   f"bar over {LANE_BASELINE}")
    # Compressed-tier bar: per-vector-byte throughput vs the float stream
    # scan of the SAME ISA — the win must come from the smaller codes, not
    # from vectorizing harder than the comparison. Scalar is exempt (as in
    # the speedup bars above): without hardware converts its fp16 decode is
    # a software routine per element, and the bar would measure the codec,
    # not the storage tier.
    for isa in isas:
        if isa == "scalar":
            continue
        for dim in DIMS:
            rows_qpvb = (throughput[(STREAM_FLOAT, isa, dim)] /
                         (BYTES_PER_DIM[STREAM_FLOAT] * float(dim)))
            for shape in QUANT_SHAPES:
                qpvb = (throughput[(shape, isa, dim)] /
                        (BYTES_PER_DIM[shape] * float(dim)))
                bar = QPVB_BAR[shape]
                expect(qpvb >= bar * rows_qpvb,
                       f"{shape}/{isa}/{dim}: {qpvb / rows_qpvb:.2f}x "
                       f"qps/vector-byte < {bar}x bar over "
                       f"{STREAM_FLOAT}/{isa}")

if errors:
    print(f"{path}: INVALID")
    for error in errors:
        print(f"  - {error}")
    sys.exit(1)

summary = []
for isa in isas:
    if isa == "scalar":
        continue
    for shape in TWO_X_SHAPES:
        ratios = [throughput[(shape, isa, d)] /
                  throughput[(BASELINE_OF[shape], "ref", d)] for d in DIMS]
        summary.append(f"{isa} {shape} {min(ratios):.1f}-{max(ratios):.1f}x")
for isa in isas:
    if isa == "scalar":
        continue
    for shape in QUANT_SHAPES:
        ratios = [(throughput[(shape, isa, d)] /
                   (BYTES_PER_DIM[shape] * float(d))) /
                  (throughput[(STREAM_FLOAT, isa, d)] /
                   (BYTES_PER_DIM[STREAM_FLOAT] * float(d))) for d in DIMS]
        summary.append(
            f"{isa} {shape} {min(ratios):.1f}-{max(ratios):.1f}x/byte")
for isa in isas:
    if isa == "scalar":
        continue
    ratios = [throughput[(LANE_SHAPE, isa, d)] /
              throughput[(LANE_BASELINE, "ref", d)] for d in LANE_DIMS]
    summary.append(f"{isa} {LANE_SHAPE} {min(ratios):.1f}-{max(ratios):.1f}x")
mode = "smoke" if smoke else "full"
print(f"{path}: valid ({mode}, ISAs: {', '.join(isas)}"
      f"{'; ' + '; '.join(summary) if summary else ''})")
