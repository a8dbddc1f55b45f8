// Micro-benchmarks: the runtime-dispatched SIMD kernel layer vs scalar
// references (google-benchmark). The distance kernel is the innermost loop
// of everything in this library; these benches document the vectorization
// win per kernel shape x ISA and catch regressions.
//
//   ./bench_micro_kernels [--smoke] [--out=PATH] [gbench flags]
//
// Besides the console table, results are written as google-benchmark JSON
// to BENCH_kernels.json (schema + perf bars checked by
// scripts/validate_bench_kernels.py: every compiled ISA must beat the
// scalar single-query scan per evaluation, the row-blocked single-query
// kernel must reach >= 2x, the bit-exact l2_lanes shape >= 3x over the
// per-pair Euclidean loop, and int8 codes >= 2x the float scan per vector
// byte over a working set past L2 on full runs). The JSON context carries the rbc
// build type, git sha, active ISA and core count. Dispatched shapes are
// registered once per ISA the host can execute — a host without AVX-512
// simply has no avx512 rows, which the validator accepts.
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "distance/dispatch.hpp"
#include "distance/kernels.hpp"
#include "distance/metrics.hpp"
#include "distance/quantized.hpp"

namespace {

using namespace rbc;

constexpr index_t kDbRows = 1024;
// Rows of the compressed tier's per-byte comparison (the stream_* shapes):
// 64Ki rows put the float set at 5.5-19 MB for d = 21..74, past a per-core
// L2, where bytes per vector set the scan rate. kDbRows rows stay in L2,
// where float and int8 scans alike are bound by arithmetic, not bytes.
constexpr index_t kStreamRows = index_t{1} << 16;

Matrix<float> make_points(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix<float> m(rows, cols);
  Rng rng(seed);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < cols; ++j)
      m.at(i, j) = rng.uniform_float(-1.0f, 1.0f);
  return m;
}

// The scalar reference kernels at the paper's dataset dimensionalities:
// robot=21, cov=54, bio=74, plus a power of two.
void BM_SqL2_Scalar(benchmark::State& state) {
  const auto d = static_cast<index_t>(state.range(0));
  const Matrix<float> pts = make_points(2, d, 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(kernels::sq_l2(pts.row(0), pts.row(1), d));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SqL2_Scalar)->Arg(21)->Arg(54)->Arg(74)->Arg(128);

void BM_L1_Scalar(benchmark::State& state) {
  const auto d = static_cast<index_t>(state.range(0));
  const Matrix<float> pts = make_points(2, d, 2);
  for (auto _ : state)
    benchmark::DoNotOptimize(kernels::l1(pts.row(0), pts.row(1), d));
}
BENCHMARK(BM_L1_Scalar)->Arg(74);

// ------------------------------------------- dispatched shapes, per ISA ---
//
// Registered from main() once per ISA this host can execute, under names
// the validator parses: "<shape>/<isa>/<d>", plus the per-query scalar
// baseline "scalar_scan/ref/<d>" every shape's items/s is compared against
// (each item = one (query, point) distance evaluation).

void bench_scalar_scan(benchmark::State& state, index_t d) {
  const Matrix<float> db = make_points(kDbRows, d, 3);
  const Matrix<float> q = make_points(1, d, 4);
  for (auto _ : state) {
    float best = kInfDist;
    for (index_t j = 0; j < kDbRows; ++j) {
      const float dist = kernels::sq_l2(q.row(0), db.row(j), d);
      if (dist < best) best = dist;
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kDbRows);
}

void bench_rows(benchmark::State& state, dispatch::Isa isa, index_t d,
                index_t rows = kDbRows) {
  const dispatch::KernelOps& ops = *dispatch::ops_for(isa);
  const Matrix<float> db = make_points(rows, d, 3);
  const Matrix<float> q = make_points(1, d, 4);
  std::vector<float> out(rows);
  for (auto _ : state) {
    ops.rows(q.row(0), d, db.data(), db.stride(), 0, rows, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}

void bench_tile(benchmark::State& state, dispatch::Isa isa, index_t d,
                bool gemm_form) {
  const dispatch::KernelOps& ops = *dispatch::ops_for(isa);
  const Matrix<float> db = make_points(kDbRows, d, 3);
  const Matrix<float> q = make_points(dispatch::kTile, d, 4);
  const float* qrows[dispatch::kTile];
  for (index_t t = 0; t < dispatch::kTile; ++t) qrows[t] = q.row(t);
  std::vector<float> qt(static_cast<std::size_t>(d) * dispatch::kTile);
  dispatch::pack_tile(qrows, dispatch::kTile, d, qt.data());
  float q_sq[dispatch::kTile];
  std::vector<float> x_sq(kDbRows);
  for (index_t t = 0; t < dispatch::kTile; ++t)
    q_sq[t] = kernels::dot(q.row(t), q.row(t), d);
  for (index_t p = 0; p < kDbRows; ++p)
    x_sq[p] = kernels::dot(db.row(p), db.row(p), d);
  std::vector<float> out(static_cast<std::size_t>(kDbRows) * dispatch::kTile);
  float lane_min[dispatch::kTile];
  for (auto _ : state) {
    if (gemm_form)
      ops.tile_gemm(qt.data(), q_sq, d, db.data(), db.stride(), x_sq.data(),
                    0, kDbRows, out.data(), lane_min);
    else
      ops.tile(qt.data(), d, db.data(), db.stride(), 0, kDbRows, out.data(),
               lane_min);
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(lane_min);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kDbRows *
                          dispatch::kTile);
}

// ------------------------------------------------- metric sweep, per ISA ---
//
// The runtime-metric shapes (rows_l1, rows_ip) against their own scalar
// single-query baselines ("scalar_scan_l1/ref/<d>", "scalar_scan_ip/ref/<d>"
// — one l1_scalar / dot_scalar call per row). The validator holds every
// SIMD ISA to >= 2x per evaluation over its baseline, the acceptance bar
// of the metric-generic API PR.

void bench_scalar_scan_l1(benchmark::State& state, index_t d) {
  const Matrix<float> db = make_points(kDbRows, d, 9);
  const Matrix<float> q = make_points(1, d, 10);
  for (auto _ : state) {
    float best = kInfDist;
    for (index_t j = 0; j < kDbRows; ++j) {
      const float dist = kernels::l1(q.row(0), db.row(j), d);
      if (dist < best) best = dist;
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kDbRows);
}

void bench_scalar_scan_ip(benchmark::State& state, index_t d) {
  const Matrix<float> db = make_points(kDbRows, d, 9);
  const Matrix<float> q = make_points(1, d, 10);
  for (auto _ : state) {
    float best = kInfDist;
    for (index_t j = 0; j < kDbRows; ++j) {
      const float dist = -kernels::dot(q.row(0), db.row(j), d);
      if (dist < best) best = dist;
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kDbRows);
}

void bench_rows_metric(benchmark::State& state, dispatch::Isa isa, index_t d,
                       bool ip) {
  const dispatch::KernelOps& ops = *dispatch::ops_for(isa);
  const Matrix<float> db = make_points(kDbRows, d, 9);
  const Matrix<float> q = make_points(1, d, 10);
  std::vector<float> out(kDbRows);
  for (auto _ : state) {
    if (ip)
      ops.rows_ip(q.row(0), d, db.data(), db.stride(), 0, kDbRows,
                  out.data());
    else
      ops.rows_l1(q.row(0), d, db.data(), db.stride(), 0, kDbRows,
                  out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kDbRows);
}

// ---------------------------------------------- compressed tier, per ISA ---
//
// The quantized single-query scans (rows_fp16, rows_int8) against the same
// squared-L2 baseline. The interesting number is throughput per *vector
// byte* — the compressed tier exists to shrink bytes/vector (4d float32 ->
// 2d fp16 -> 1d int8), so each entry carries a qps_per_vector_byte counter.
// The validator's per-byte bar (int8 >= 2x the float kernel, the
// acceptance bar of the compressed-scan-tier PR) reads the stream_* shapes:
// the same kernels over kStreamRows rows, past L2.

void bench_rows_quant(benchmark::State& state, dispatch::Isa isa, index_t d,
                      quant::Storage mode, index_t rows = kDbRows) {
  const dispatch::KernelOps& ops = *dispatch::ops_for(isa);
  const Matrix<float> db = make_points(rows, d, 3);
  const Matrix<float> q = make_points(1, d, 4);
  const quant::QuantizedStore store = quant::quantize(mode, db);
  std::vector<float> out(rows);
  for (auto _ : state) {
    if (mode == quant::Storage::kFp16)
      ops.rows_fp16(q.row(0), d, store.fp16.data(), d, 0, rows, out.data());
    else
      ops.rows_int8(q.row(0), d, store.int8.data(), d, store.scale.data(),
                    store.offset.data(), 0, rows, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
  const double bytes_per_vector =
      static_cast<double>(d) * (mode == quant::Storage::kFp16 ? 2.0 : 1.0);
  state.counters["qps_per_vector_byte"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * rows / bytes_per_vector,
      benchmark::Counter::kIsRate);
}

// ------------------------------------------------ bit-exact lanes, per ISA ---
//
// The l2_lanes shape (one query x kDbRows lane-blocked rows, the stage-1
// BF(q, R) and build-time BF(X, R) shape of the exact RBC) against the
// loop it replaces there: one Euclidean{} call per row into an output
// buffer ("euclid_scan/ref/<d>"). Both produce the same bits; the
// validator holds every SIMD ISA to >= 3x per evaluation.

void bench_euclid_scan(benchmark::State& state, index_t d) {
  const Matrix<float> db = make_points(kDbRows, d, 11);
  const Matrix<float> q = make_points(1, d, 12);
  const Euclidean euclid{};
  std::vector<float> out(kDbRows);
  for (auto _ : state) {
    for (index_t j = 0; j < kDbRows; ++j)
      out[j] = euclid(q.row(0), db.row(j), d);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kDbRows);
}

void bench_l2_lanes(benchmark::State& state, dispatch::Isa isa, index_t d) {
  const dispatch::KernelOps& ops = *dispatch::ops_for(isa);
  const Matrix<float> db = make_points(kDbRows, d, 11);
  const Matrix<float> q = make_points(1, d, 12);
  AlignedBuffer<float> lanes(dispatch::lanes_size(kDbRows, d));
  dispatch::pack_lanes(db.data(), db.stride(), kDbRows, d, lanes.data());
  std::vector<float> out(kDbRows);
  for (auto _ : state) {
    ops.l2_lanes(q.row(0), d, lanes.data(), kDbRows, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kDbRows);
}

void register_dispatch_benches(bool smoke) {
  const std::vector<index_t> dims = {21, 32, 74};
  auto tune = [smoke](benchmark::internal::Benchmark* b) {
    if (smoke) b->Iterations(200);  // schema validation in seconds, not perf
  };
  for (const index_t d : dims) {
    tune(benchmark::RegisterBenchmark(
        ("scalar_scan/ref/" + std::to_string(d)).c_str(),
        [d](benchmark::State& s) { bench_scalar_scan(s, d); }));
    tune(benchmark::RegisterBenchmark(
        ("scalar_scan_l1/ref/" + std::to_string(d)).c_str(),
        [d](benchmark::State& s) { bench_scalar_scan_l1(s, d); }));
    tune(benchmark::RegisterBenchmark(
        ("scalar_scan_ip/ref/" + std::to_string(d)).c_str(),
        [d](benchmark::State& s) { bench_scalar_scan_ip(s, d); }));
  }
  for (const dispatch::Isa isa :
       {dispatch::Isa::kScalar, dispatch::Isa::kAvx2,
        dispatch::Isa::kAvx512}) {
    if (!dispatch::isa_available(isa)) continue;
    const std::string name = dispatch::isa_name(isa);
    for (const index_t d : dims) {
      const std::string suffix = name + "/" + std::to_string(d);
      tune(benchmark::RegisterBenchmark(
          ("rows/" + suffix).c_str(),
          [isa, d](benchmark::State& s) { bench_rows(s, isa, d); }));
      tune(benchmark::RegisterBenchmark(
          ("tile/" + suffix).c_str(),
          [isa, d](benchmark::State& s) { bench_tile(s, isa, d, false); }));
      tune(benchmark::RegisterBenchmark(
          ("tile_gemm/" + suffix).c_str(),
          [isa, d](benchmark::State& s) { bench_tile(s, isa, d, true); }));
      tune(benchmark::RegisterBenchmark(
          ("rows_l1/" + suffix).c_str(),
          [isa, d](benchmark::State& s) {
            bench_rows_metric(s, isa, d, false);
          }));
      tune(benchmark::RegisterBenchmark(
          ("rows_ip/" + suffix).c_str(),
          [isa, d](benchmark::State& s) {
            bench_rows_metric(s, isa, d, true);
          }));
      tune(benchmark::RegisterBenchmark(
          ("rows_fp16/" + suffix).c_str(), [isa, d](benchmark::State& s) {
            bench_rows_quant(s, isa, d, quant::Storage::kFp16);
          }));
      tune(benchmark::RegisterBenchmark(
          ("rows_int8/" + suffix).c_str(), [isa, d](benchmark::State& s) {
            bench_rows_quant(s, isa, d, quant::Storage::kInt8);
          }));
      tune(benchmark::RegisterBenchmark(
          ("stream_rows/" + suffix).c_str(), [isa, d](benchmark::State& s) {
            bench_rows(s, isa, d, kStreamRows);
          }));
      tune(benchmark::RegisterBenchmark(
          ("stream_fp16/" + suffix).c_str(), [isa, d](benchmark::State& s) {
            bench_rows_quant(s, isa, d, quant::Storage::kFp16, kStreamRows);
          }));
      tune(benchmark::RegisterBenchmark(
          ("stream_int8/" + suffix).c_str(), [isa, d](benchmark::State& s) {
            bench_rows_quant(s, isa, d, quant::Storage::kInt8, kStreamRows);
          }));
    }
  }
  // The lane shape also runs at cov's d = 54: the batch-exact workload's
  // stage 1 and build.
  const std::vector<index_t> lane_dims = {21, 32, 54, 74};
  for (const index_t d : lane_dims)
    tune(benchmark::RegisterBenchmark(
        ("euclid_scan/ref/" + std::to_string(d)).c_str(),
        [d](benchmark::State& s) { bench_euclid_scan(s, d); }));
  for (const dispatch::Isa isa :
       {dispatch::Isa::kScalar, dispatch::Isa::kAvx2,
        dispatch::Isa::kAvx512}) {
    if (!dispatch::isa_available(isa)) continue;
    for (const index_t d : lane_dims)
      tune(benchmark::RegisterBenchmark(
          ("l2_lanes/" + std::string(dispatch::isa_name(isa)) + "/" +
           std::to_string(d))
              .c_str(),
          [isa, d](benchmark::State& s) { bench_l2_lanes(s, isa, d); }));
  }
}

/// Host and build stamp in the JSON context (validated by
/// scripts/validate_bench_kernels.py): which build of which commit ran on
/// how many cores with which kernel table active.
void stamp_context() {
  benchmark::AddCustomContext("rbc_build_type", RBC_BUILD_TYPE);
  benchmark::AddCustomContext("rbc_git_sha", RBC_GIT_SHA);
  benchmark::AddCustomContext("rbc_active_isa",
                              dispatch::isa_name(dispatch::active_isa()));
  benchmark::AddCustomContext(
      "rbc_nproc", std::to_string(std::thread::hardware_concurrency()));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_kernels.json";
  std::vector<char*> user_flags;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0)
      smoke = true;
    else if (std::strncmp(argv[a], "--out=", 6) == 0)
      out_path = argv[a] + 6;
    else
      user_flags.push_back(argv[a]);
  }
  // Full runs record the median of 7 repetitions per benchmark, run in
  // random interleaved order: on a shared host single runs drift by more
  // than the validator's ratio bars allow, and interleaving exposes both
  // sides of each ratio to the same drift. User flags come later and
  // override these.
  std::string reps_flag = "--benchmark_repetitions=7";
  std::string interleave_flag = "--benchmark_enable_random_interleaving=true";
  std::string aggregates_flag = "--benchmark_report_aggregates_only=true";
  std::vector<char*> passthrough = {argv[0]};
  if (!smoke) {
    passthrough.push_back(reps_flag.data());
    passthrough.push_back(interleave_flag.data());
    passthrough.push_back(aggregates_flag.data());
  }
  passthrough.insert(passthrough.end(), user_flags.begin(), user_flags.end());
  // Route the JSON through google-benchmark's own file reporter.
  std::string out_flag = "--benchmark_out=" + out_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  passthrough.push_back(out_flag.data());
  passthrough.push_back(fmt_flag.data());
  int pass_argc = static_cast<int>(passthrough.size());

  register_dispatch_benches(smoke);
  stamp_context();
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
