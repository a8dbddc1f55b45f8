// Shared pieces of the repository benchmark: deterministic inputs, sample
// statistics, the Poisson arrival schedule, spans, host context and the
// result record every workload fills.
//
// The benchmark measures the library from outside. It calls only public
// APIs (api/, serve/, serve/net/protocol.hpp, data/) and reads their public
// counters; spans are recorded around those calls, never inside them.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "common/matrix.hpp"

namespace perfbench {

using rbc::index_t;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Every workload runs on the paper's Covertype surrogate (d = 54,
/// intrinsic dimension 4) with k = 10.
inline constexpr index_t kK = 10;

// ---------------------------------------------------------------- stats ---

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 for an
/// empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// The sample-count rule: percentile p is reportable only when at least ten
/// samples lie beyond it, i.e. n * (100 - p) / 100 >= 10. p50 therefore
/// needs 20 samples and p99 needs 1,000.
bool supports_percentile(std::size_t n, double p);

// ------------------------------------------------------------- schedule ---

/// Open-loop arrival offsets (seconds from phase start, ascending) of a
/// Poisson process at `rate` events/s over [0, duration_s). Deterministic
/// in `seed`: the same seed gives the same schedule on every host.
std::vector<double> poisson_arrivals(double rate, double duration_s,
                                     std::uint64_t seed);

/// How far an open-loop generator ran behind its schedule: one sample per
/// scheduled event, actual start minus scheduled start (clamped at 0).
class Lateness {
 public:
  void record(Clock::time_point scheduled, Clock::time_point actual);
  std::size_t count() const { return late_ms_.size(); }
  double p99_ms() const { return percentile(late_ms_, 99.0); }
  double max_ms() const;

 private:
  std::vector<double> late_ms_;
};

// ---------------------------------------------------------------- spans ---

/// One timed call the benchmark made into a layer. `parent` is the id of
/// the enclosing span (0 = none); spans of one request share `request`.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

/// A count snapshotted at a span boundary (e.g. distance evaluations when a
/// phase ends), so ratios are taken where the work happened.
struct CountSnapshot {
  std::uint64_t span = 0;
  std::string name;
  double value = 0.0;
};

/// In-memory span store. Disabled (the untraced run) it records nothing and
/// hands out id 0. Enabled, every thread appends under one mutex — the
/// recorded calls are whole knn/insert/wire operations, so the lock is
/// never the bottleneck — and write() dumps everything when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  std::uint64_t next_id() {
    return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }
  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t add(const std::string& name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent = 0,
                    std::uint64_t request = 0, std::uint64_t id = 0);
  void count(std::uint64_t span, const std::string& name, double value);

  /// Durations (ms) of every span with this name.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Self time (ms) of each span with this name: its duration minus the
  /// part of its interval covered by its children.
  std::vector<double> self_ms(const std::string& name) const;

  /// Prints, per span name, the count and the p50 of duration and of self
  /// time — where each layer's time went.
  void print_summary() const;

  /// Writes spans and counts as JSON lines; returns false on I/O failure.
  bool write(const std::string& path, Clock::time_point origin) const;

 private:
  bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<CountSnapshot> counts_;
};

/// RAII span: times its own lifetime.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t parent = 0)
      : tracer_(tracer), name_(std::move(name)), parent_(parent),
        id_(tracer.next_id()), start_(Clock::now()) {}
  ~ScopedSpan() { tracer_.add(name_, start_, Clock::now(), parent_, 0, id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t id_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------- host ----

/// Cumulative CPU jiffies from the aggregate /proc/stat line.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();
/// Share of CPU time stolen by the hypervisor between two readings.
double steal_fraction(const CpuTimes& a, const CpuTimes& b);

/// A fixed single-thread arithmetic loop, timed; the median of five
/// repetitions in ms. Its code never changes, so it tracks host speed.
double host_probe_ms();

/// Host and build context recorded with every result.
struct HostStamp {
  int nproc = 0;
  std::string cpu_model;
  std::string l3_cache;
  std::string compiler;
  std::string flags;
  std::string build_type;
  std::string git_sha;
  int omp_threads = 0;
  int keep_awake = 0;  ///< KeepAwake threads that ran during the workload
};
HostStamp host_stamp(const std::string& git_sha);

/// Keeps every vCPU out of halt while a workload runs. On a KVM guest an
/// idle vCPU halts, and waking it again waits on the host's scheduler; with
/// busy neighbours that wait (counted as steal) reached 10-15% of CPU time
/// and doubled serve-open's p50. One thread per CPU, pinned, at SCHED_IDLE,
/// calls sched_yield() in a loop: a program thread that wakes preempts it at
/// once, and when the scheduler picks it beside a runnable program thread it
/// gives the CPU straight back. A thread that cannot drop to SCHED_IDLE
/// ends instead of spinning at normal priority.
class KeepAwake {
 public:
  explicit KeepAwake(int cpus);
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  /// Threads spinning at SCHED_IDLE.
  int active() const { return active_; }

 private:
  std::atomic<bool> stop_{false};
  int active_ = 0;
  std::vector<std::thread> threads_;
};

// -------------------------------------------------------------- results ---

struct MetricDef {
  const char* name;
  const char* unit;
  enum Kind { kEndToEnd, kLayer, kRecordOnly } kind;
};

/// Every metric the benchmark can report. kEndToEnd and kLayer entries are
/// exactly BENCHMARK.json's end_to_end and per_layer lists. kRecordOnly
/// entries are printed in every run's record but carry no bound: the
/// end-to-end tails, whose run-to-run spread on a shared 4-vCPU host
/// exceeds the largest bound allowed, and layer times that exist on one
/// workload only (see README.md, "Metric dictionary").
const std::vector<MetricDef>& metric_catalogue();

/// What a run measured, plus how it went. Thread-safe: load threads bump
/// the counters, and the watchdog may print while the workload still runs.
struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;

  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<bool> wrong{false};  ///< some answer did not match bruteforce

  void set(const std::string& name, double value, std::size_t samples = 1);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;

  /// Reasons the run is not valid (wrong answers, too few samples, ...).
  void invalidate(const std::string& why);
  bool correct() const;

  /// Prints the human-readable summary, the record line and, last, the
  /// result line {"correct", "attempted", "failed", "metrics"}.
  void print(const HostStamp& host) const;

 private:
  struct Value {
    double value = 0.0;
    std::size_t samples = 0;
  };
  mutable std::mutex mutex_;  // guards values_ and problems_
  std::map<std::string, Value> values_;
  std::vector<std::string> problems_;
};

/// Sets a p50/p99 pair: the median over windows of each window's
/// percentile, so one burst of host interference moves one window, not the
/// result. Every window must hold >= 1,000 samples (the p99 rule).
void set_latency(Result& result, const std::string& p50_name,
                 const std::string& p99_name,
                 const std::vector<std::vector<double>>& windows);

/// Splits samples, in the order taken, into up to five equal consecutive
/// windows of >= 1,000 samples each (one window when there are fewer).
std::vector<std::vector<double>> windows_of(const std::vector<double>& ms);

// ------------------------------------------------------------- answers ---

/// Exact reference answers for a fixed query sample, from the bruteforce
/// backend over the same live rows.
struct GroundTruth {
  rbc::Matrix<float> queries;  // sample x d
  rbc::KnnResult knn;          // sample x kK
  double bf_seconds = 0.0;     // wall time of the bruteforce search
  std::uint64_t bf_evals = 0;  // distance evaluations it made
};

/// Builds a bruteforce index over `rows` (with global `ids`, ascending; an
/// empty span means 0..n-1) and answers `queries`.
GroundTruth ground_truth(const rbc::Matrix<float>& rows,
                         std::span<const index_t> ids,
                         rbc::Matrix<float> queries, Tracer& tracer);

/// Shape check every answer gets: kK ids per query, each valid, distances
/// ascending.
bool well_formed(const index_t* ids, const float* dists, index_t k,
                 index_t id_limit);

/// Compares one answer row with the reference row, ids and distances,
/// bit for bit (ties included).
bool matches(const index_t* ids, const float* dists, const rbc::KnnResult& ref,
             index_t ref_row);

/// Share of the reference's k ids present in each answer row, averaged.
double recall(const rbc::KnnResult& got, const rbc::KnnResult& ref);

/// Rows [begin, begin + count) of `m` as a new matrix.
rbc::Matrix<float> slice_rows(const rbc::Matrix<float>& m, index_t begin,
                              index_t count);

// ------------------------------------------------------------ workloads ---

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its spans
};

/// A watchdog that ends a run that overruns its hard deadline: it counts
/// the `unfinished` operations as failed, prints the result and exits, so a
/// stalled program yields a failed run instead of a hung benchmark.
class Watchdog {
 public:
  Watchdog(Result& result, const HostStamp& host, double deadline_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Operations issued but not answered (set by the workload's load loop).
  std::atomic<std::uint64_t> unfinished{0};

  /// Ends the run now, as if the deadline had passed: for a workload whose
  /// threads are stuck in a call that never returns (they cannot be
  /// joined, so the workload cannot unwind).
  [[noreturn]] void expire(const std::string& why);

 private:
  Result& result_;
  const HostStamp& host_;
  std::once_flag fired_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

void run_batch_exact(const RunConfig& cfg, Result& result, Tracer& tracer,
                     Watchdog& watchdog);
void run_serve_open(const RunConfig& cfg, Result& result, Tracer& tracer,
                    Watchdog& watchdog);
void run_ingest_rw(const RunConfig& cfg, Result& result, Tracer& tracer,
                   Watchdog& watchdog);

/// The generated inputs of one workload: database rows and a query pool
/// from the cov surrogate, both derived from the seed alone.
struct Inputs {
  rbc::Matrix<float> rows;
  rbc::Matrix<float> queries;
};
Inputs make_inputs(index_t n, index_t n_queries, std::uint64_t seed);

/// Times `index->knn_search` on one query block with stats collection,
/// recording the rbc.* work counts per query.
void record_rbc_counts(const rbc::Index& index, const rbc::Matrix<float>& block,
                       Result& result);

/// Answers the ground truth's queries with `index` (median of three timed
/// calls), sets bruteforce.evals_per_s and rbc.speedup_vs_bruteforce (the
/// paper's Fig. 2 ratio), and returns the index's answers.
rbc::KnnResult time_against_bruteforce(const rbc::Index& index,
                                       const GroundTruth& gt, Result& result);

/// The in-process compute floor: api.knn_single_us_p50 over 1,000 one-row
/// knn_search calls (query rows 0..999) and api.knn_block_ms_p50 over five
/// calls on the first 1,024 rows.
void probe_compute(const rbc::Index& index, const rbc::Matrix<float>& queries,
                   Tracer& tracer, Result& result);

/// Fills every catalogue metric a workload does not exercise with 0, so
/// each run reports the whole list (0 = layer not exercised).
void fill_unexercised(Result& result);

}  // namespace perfbench
