#include "bench.hpp"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <latch>
#include <set>
#include <sstream>

#include "common/counters.hpp"
#include "common/rng.hpp"
#include "data/generators.hpp"
#include "parallel/runtime.hpp"

namespace perfbench {

// ---------------------------------------------------------------- stats ---

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0
          ? 0
          : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[idx];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

bool supports_percentile(std::size_t n, double p) {
  // Integer form of n * (100 - p) / 100 >= 10 for p given in hundredths.
  const auto beyond_x100 = static_cast<long long>(n) *
                           std::llround((100.0 - p) * 100.0);
  return beyond_x100 >= 10LL * 100 * 100;
}

// ------------------------------------------------------------- schedule ---

std::vector<double> poisson_arrivals(double rate, double duration_s,
                                     std::uint64_t seed) {
  std::vector<double> out;
  if (rate <= 0.0) return out;
  rbc::Rng rng(seed);
  out.reserve(static_cast<std::size_t>(rate * duration_s * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate;  // exponential gap
    if (t >= duration_s) break;
    out.push_back(t);
  }
  return out;
}

void Lateness::record(Clock::time_point scheduled, Clock::time_point actual) {
  late_ms_.push_back(std::max(0.0, ms_between(scheduled, actual)));
}

double Lateness::max_ms() const {
  return late_ms_.empty() ? 0.0
                          : *std::max_element(late_ms_.begin(), late_ms_.end());
}

// ---------------------------------------------------------------- spans ---

std::uint64_t Tracer::add(const std::string& name, Clock::time_point start,
                          Clock::time_point end, std::uint64_t parent,
                          std::uint64_t request, std::uint64_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = next_id();
  std::lock_guard lock(mutex_);
  spans_.push_back({id, parent, request, name, start, end});
  return id;
}

void Tracer::count(std::uint64_t span, const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard lock(mutex_);
  counts_.push_back({span, name, value});
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(ms_between(s.start, s.end));
  return out;
}

std::vector<double> Tracer::self_ms(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_)
    if (s.parent != 0) children[s.parent].push_back(&s);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    for (const Span* c : children[s.id])
      iv.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : iv) {
      const Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered += ms_between(from, b);
        reach = b;
      }
    }
    out.push_back(ms_between(s.start, s.end) - covered);
  }
  return out;
}

void Tracer::print_summary() const {
  std::set<std::string> names;
  {
    std::lock_guard lock(mutex_);
    for (const Span& s : spans_) names.insert(s.name);
  }
  std::printf("spans: %-26s %8s %14s %14s\n", "name", "count", "p50_ms",
              "self_p50_ms");
  for (const std::string& name : names) {
    const std::vector<double> d = durations_ms(name);
    std::printf("       %-26s %8zu %14.4f %14.4f\n", name.c_str(), d.size(),
                median(d), median(self_ms(name)));
  }
}

bool Tracer::write(const std::string& path, Clock::time_point origin) const {
  std::lock_guard lock(mutex_);
  std::ofstream os(path);
  if (!os) return false;
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"span\":%llu,\"parent\":%llu,\"request\":%llu,"
                  "\"start_us\":%.3f,\"end_us\":%.3f,\"name\":\"",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  ms_between(origin, s.start) * 1e3,
                  ms_between(origin, s.end) * 1e3);
    os << line << s.name << "\"}\n";
  }
  for (const CountSnapshot& c : counts_) {
    std::snprintf(line, sizeof line, "{\"count_at\":%llu,\"value\":%.17g,",
                  static_cast<unsigned long long>(c.span), c.value);
    os << line << "\"name\":\"" << c.name << "\"}\n";
  }
  return static_cast<bool>(os.flush());
}

// ---------------------------------------------------------------- host ----

CpuTimes read_cpu_times() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  CpuTimes t;
  if (!(is >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(is >> v)) return CpuTimes{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_fraction(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total || b.steal < a.steal) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double host_probe_ms() {
  // A dependent chain of integer mixing and float work over a small
  // L1-resident table: no memory-bandwidth term, no vectorizable loop.
  std::vector<double> reps;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(rep);
    double acc = 0.0;
    double table[256];
    for (int i = 0; i < 256; ++i) table[i] = 1.0 + i * 1e-3;
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      acc = acc * 0.999999 + table[x & 255];
      table[(x >> 8) & 255] = acc * 1e-6;
    }
    sink = sink + acc;
    reps.push_back(ms_between(t0, Clock::now()));
  }
  (void)sink;
  return median(reps);
}

KeepAwake::KeepAwake(int cpus) {
  std::atomic<int> idle{0};
  std::latch ready(cpus);
  auto spin = [this, &idle, &ready](int cpu) {
    const sched_param param{};
    const bool lowered =
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) == 0;
    if (lowered) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      // Best effort: unpinned, the scheduler still spreads the threads.
      (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
      ++idle;
    }
    ready.count_down();  // the last use of `idle` and `ready`
    if (!lowered) return;
    while (!stop_.load(std::memory_order_relaxed)) sched_yield();
  };
  try {
    for (int c = 0; c < cpus; ++c) threads_.emplace_back(spin, c);
  } catch (...) {
    // Threads already started must count down before `ready` goes away.
    stop_ = true;
    for (std::thread& t : threads_) t.join();
    throw;
  }
  ready.wait();
  active_ = idle.load();
}

KeepAwake::~KeepAwake() {
  stop_ = true;
  for (std::thread& t : threads_) t.join();
}

namespace {

std::string first_line_matching(const char* path, const std::string& key) {
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line))
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) return line;
      auto v = line.substr(colon + 1);
      v.erase(0, v.find_first_not_of(" \t"));
      return v;
    }
  return "unknown";
}

std::string read_word(const char* path) {
  std::ifstream is(path);
  std::string w;
  return (is >> w) ? w : "unknown";
}

}  // namespace

HostStamp host_stamp(const std::string& git_sha) {
  HostStamp h;
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  h.cpu_model = first_line_matching("/proc/cpuinfo", "model name");
  h.l3_cache = read_word("/sys/devices/system/cpu/cpu0/cache/index3/size");
  h.compiler = "g++ " __VERSION__;
  h.flags = PERFBENCH_CXX_FLAGS;
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.git_sha = git_sha;
  h.omp_threads = rbc::max_threads();
  return h;
}

// -------------------------------------------------------------- results ---

const std::vector<MetricDef>& metric_catalogue() {
  using K = MetricDef::Kind;
  static const std::vector<MetricDef> defs = {
      {"throughput_qps", "queries/s", K::kEndToEnd},
      {"latency_p50_ms", "ms", K::kEndToEnd},
      {"recall_at_10", "fraction", K::kEndToEnd},
      {"setup_s", "s", K::kEndToEnd},
      {"index_bytes_per_row", "B/row", K::kEndToEnd},

      {"rbc.rep_evals_per_query", "count", K::kLayer},
      {"rbc.list_evals_per_query", "count", K::kLayer},
      {"rbc.reps_scanned_per_query", "count", K::kLayer},
      {"rbc.pruned_rule1_per_query", "count", K::kLayer},
      {"rbc.pruned_rule2_per_query", "count", K::kLayer},
      {"rbc.early_exit_skips_per_query", "count", K::kLayer},
      {"rbc.work_fraction", "fraction", K::kLayer},
      {"rbc.speedup_vs_bruteforce", "x", K::kLayer},
      {"bruteforce.evals_per_s", "1/s", K::kLayer},
      {"api.knn_block_ms_p50", "ms", K::kLayer},
      {"api.knn_single_us_p50", "us", K::kLayer},
      {"serve.mean_batch", "rows", K::kLayer},
      {"serve.singleton_batch_frac", "fraction", K::kLayer},
      {"serve.max_queue_depth", "count", K::kLayer},
      {"serve.rejected", "count", K::kLayer},
      {"net.bytes_in_per_query", "B", K::kLayer},
      {"net.bytes_out_per_query", "B", K::kLayer},
      {"net.protocol_errors", "count", K::kLayer},
      {"loadgen.late_p99_ms", "ms", K::kLayer},
      {"loadgen.late_max_ms", "ms", K::kLayer},
      {"mutate.insert_ms_p50", "ms", K::kLayer},
      {"mutate.insert_ms_p99", "ms", K::kLayer},
      {"mutate.remove_ms_p50", "ms", K::kLayer},
      {"mutate.remove_ms_p99", "ms", K::kLayer},
      {"mutate.merge_cycles", "count", K::kLayer},
      {"mutate.delta_rows_mean", "rows", K::kLayer},
      {"mutate.tombstones_mean", "count", K::kLayer},
      {"mutate.read_evals_per_query", "count", K::kLayer},
      {"mutate.compact_s", "s", K::kLayer},
      {"shard.evals_vs_unsharded", "ratio", K::kLayer},
      {"host.steal_frac", "fraction", K::kLayer},
      {"host.probe_ms", "ms", K::kLayer},

      {"latency_p99_ms", "ms", K::kRecordOnly},
      {"write_p50_ms", "ms", K::kRecordOnly},
      {"write_p99_ms", "ms", K::kRecordOnly},
      {"serve.latency_p50_ms", "ms", K::kRecordOnly},
      {"serve.latency_p99_ms", "ms", K::kRecordOnly},
      {"serve.self_ms_p50", "ms", K::kRecordOnly},
      {"net.roundtrip_p50_ms", "ms", K::kRecordOnly},
      {"net.roundtrip_p99_ms", "ms", K::kRecordOnly},
      {"net.self_ms_p50", "ms", K::kRecordOnly},
  };
  return defs;
}

void Result::set(const std::string& name, double value, std::size_t samples) {
  std::lock_guard lock(mutex_);
  values_[name] = {value, samples};
}

bool Result::has(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return values_.count(name) > 0;
}

double Result::get(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.value;
}

void Result::invalidate(const std::string& why) {
  std::lock_guard lock(mutex_);
  problems_.push_back(why);
}

bool Result::correct() const {
  std::lock_guard lock(mutex_);
  return problems_.empty() && !wrong.load();
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Result::print(const HostStamp& host) const {
  std::lock_guard lock(mutex_);
  const bool ok = problems_.empty() && !wrong.load();
  const MetricDef::Kind final_kind =
      trace ? MetricDef::kLayer : MetricDef::kEndToEnd;

  std::ostringstream human;
  human << "perfbench " << workload << " seed=" << seed
        << " seconds=" << seconds << " trace=" << (trace ? 1 : 0) << "\n"
        << "host: nproc=" << host.nproc << " cpu=\"" << host.cpu_model
        << "\" l3=" << host.l3_cache << " omp_threads=" << host.omp_threads
        << " keep_awake=" << host.keep_awake
        << "\nbuild: " << host.build_type << " " << host.compiler
        << " flags=\"" << host.flags << "\" git=" << host.git_sha << "\n";
  char line[160];
  for (const MetricDef& d : metric_catalogue()) {
    const auto it = values_.find(d.name);
    if (it == values_.end()) continue;
    std::snprintf(line, sizeof line, "  %-32s %16.6g %-10s n=%zu\n", d.name,
                  it->second.value, d.unit, it->second.samples);
    human << line;
  }
  for (const std::string& p : problems_) human << "  INVALID: " << p << "\n";
  human << "  attempted=" << attempted.load() << " failed=" << failed.load()
        << " correct=" << (ok ? "true" : "false") << "\n";
  std::cout << human.str();

  // The record: host stamp plus every metric measured, with sample counts.
  std::ostringstream rec;
  rec << "{\"record\": {\"workload\": \"" << workload << "\", \"seed\": "
      << seed << ", \"seconds\": " << number(seconds)
      << ", \"trace\": " << (trace ? 1 : 0) << ", \"host\": {\"nproc\": "
      << host.nproc << ", \"cpu_model\": \"" << json_escape(host.cpu_model)
      << "\", \"l3_cache\": \"" << json_escape(host.l3_cache)
      << "\", \"compiler\": \"" << json_escape(host.compiler)
      << "\", \"flags\": \"" << json_escape(host.flags)
      << "\", \"build_type\": \"" << json_escape(host.build_type)
      << "\", \"git_sha\": \"" << json_escape(host.git_sha)
      << "\", \"omp_threads\": " << host.omp_threads
      << ", \"keep_awake\": " << host.keep_awake << "}, \"problems\": [";
  for (std::size_t i = 0; i < problems_.size(); ++i)
    rec << (i ? ", " : "") << "\"" << json_escape(problems_[i]) << "\"";
  rec << "], \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : metric_catalogue()) {
    const auto it = values_.find(d.name);
    if (it == values_.end()) continue;
    rec << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
        << number(it->second.value) << ", \"unit\": \"" << d.unit
        << "\", \"samples\": " << it->second.samples << "}";
    first = false;
  }
  rec << "}}}";
  std::cout << rec.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\": " << (ok ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(1, attempted.load())
      << ", \"failed\": " << failed.load() << ", \"metrics\": {";
  first = true;
  for (const MetricDef& d : metric_catalogue()) {
    if (d.kind != final_kind) continue;
    const auto it = values_.find(d.name);
    const double v = it == values_.end() ? 0.0 : it->second.value;
    out << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
        << number(v) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void set_latency(Result& result, const std::string& p50_name,
                 const std::string& p99_name,
                 const std::vector<std::vector<double>>& windows) {
  std::vector<double> p50s, p99s;
  std::size_t n = 0;
  std::size_t smallest = windows.empty() ? 0 : windows.front().size();
  for (const std::vector<double>& w : windows) {
    p50s.push_back(percentile(w, 50.0));
    p99s.push_back(percentile(w, 99.0));
    n += w.size();
    smallest = std::min(smallest, w.size());
  }
  result.set(p50_name, median(p50s), n);
  result.set(p99_name, median(p99s), n);
  if (!supports_percentile(smallest, 99.0))
    result.invalidate(p99_name + ": a window of " + std::to_string(smallest) +
                      " samples, p99 needs 1000");
}

std::vector<std::vector<double>> windows_of(const std::vector<double>& ms) {
  const std::size_t n = ms.size();
  const std::size_t w = std::clamp<std::size_t>(n / 1000, 1, 5);
  std::vector<std::vector<double>> out;
  for (std::size_t i = 0; i < w; ++i)
    out.emplace_back(ms.begin() + i * n / w, ms.begin() + (i + 1) * n / w);
  return out;
}

// ------------------------------------------------------------- answers ---

GroundTruth ground_truth(const rbc::Matrix<float>& rows,
                         std::span<const index_t> ids,
                         rbc::Matrix<float> queries, Tracer& tracer) {
  GroundTruth gt;
  gt.queries = std::move(queries);
  auto bf = rbc::make_index("bruteforce");
  if (ids.empty())
    bf->build(rows);
  else
    bf->build_with_ids(rows, ids);
  rbc::SearchRequest req{.queries = &gt.queries, .k = kK};
  const std::uint64_t evals0 = rbc::counters::total_dist_evals();
  const auto t0 = Clock::now();
  gt.knn = bf->knn_search(req).knn;
  const auto t1 = Clock::now();
  gt.bf_evals = rbc::counters::total_dist_evals() - evals0;
  gt.bf_seconds = s_between(t0, t1);
  tracer.add("bruteforce.knn", t0, t1);
  return gt;
}

bool well_formed(const index_t* ids, const float* dists, index_t k,
                 index_t id_limit) {
  for (index_t j = 0; j < k; ++j) {
    if (ids[j] >= id_limit || !std::isfinite(dists[j])) return false;
    if (j > 0 && dists[j] < dists[j - 1]) return false;
  }
  return true;
}

bool matches(const index_t* ids, const float* dists, const rbc::KnnResult& ref,
             index_t ref_row) {
  const index_t k = ref.ids.cols();
  for (index_t j = 0; j < k; ++j)
    if (ids[j] != ref.ids.at(ref_row, j) ||
        dists[j] != ref.dists.at(ref_row, j))
      return false;
  return true;
}

double recall(const rbc::KnnResult& got, const rbc::KnnResult& ref) {
  const index_t nq = ref.ids.rows();
  const index_t k = ref.ids.cols();
  if (nq == 0 || got.ids.rows() != nq || got.ids.cols() != k) return 0.0;
  std::size_t hits = 0;
  for (index_t i = 0; i < nq; ++i)
    for (index_t j = 0; j < k; ++j) {
      const index_t want = ref.ids.at(i, j);
      for (index_t m = 0; m < k; ++m)
        if (got.ids.at(i, m) == want) {
          ++hits;
          break;
        }
    }
  return static_cast<double>(hits) / static_cast<double>(nq * k);
}

rbc::Matrix<float> slice_rows(const rbc::Matrix<float>& m, index_t begin,
                              index_t count) {
  rbc::Matrix<float> out(count, m.cols());
  for (index_t i = 0; i < count; ++i) out.copy_row_from(m, begin + i, i);
  return out;
}

// ------------------------------------------------------------ watchdog ---

Watchdog::Watchdog(Result& result, const HostStamp& host, double deadline_s)
    : result_(result), host_(host) {
  const auto deadline = after(Clock::now(), deadline_s);
  thread_ = std::thread([this, deadline] {
    std::unique_lock lock(mutex_);
    if (cv_.wait_until(lock, deadline, [this] { return done_; })) return;
    lock.unlock();
    expire("hard deadline reached");
  });
}

void Watchdog::expire(const std::string& why) {
  // A call into the program has not returned. Report what was measured,
  // count the unanswered operations as failed, and end the process.
  std::call_once(fired_, [&] {
    const std::uint64_t open = unfinished.load();
    result_.failed += open;
    result_.invalidate(why + "; " + std::to_string(open) +
                       " operations unfinished");
    if (result_.trace) fill_unexercised(result_);
    result_.print(host_);
    std::fflush(stdout);
    std::_Exit(0);
  });
  for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
}

Watchdog::~Watchdog() {
  {
    std::lock_guard lock(mutex_);
    done_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

// ------------------------------------------------------------ workloads ---

Inputs make_inputs(index_t n, index_t n_queries, std::uint64_t seed) {
  rbc::data::DataSplit split = rbc::data::make_benchmark_data(
      rbc::data::dataset_by_name("cov"), n, n_queries, seed);
  return {std::move(split.database), std::move(split.queries)};
}

void record_rbc_counts(const rbc::Index& index, const rbc::Matrix<float>& block,
                       Result& result) {
  rbc::SearchRequest req{.queries = &block, .k = kK};
  req.options.collect_stats = true;
  const rbc::SearchStats s = index.knn_search(req).stats;
  const double q = static_cast<double>(std::max<std::uint64_t>(1, s.queries));
  const std::size_t n = block.rows();
  result.set("rbc.rep_evals_per_query", s.rep_dist_evals / q, n);
  result.set("rbc.list_evals_per_query", s.list_dist_evals / q, n);
  result.set("rbc.reps_scanned_per_query", s.reps_scanned / q, n);
  result.set("rbc.pruned_rule1_per_query", s.reps_pruned_overlap / q, n);
  result.set("rbc.pruned_rule2_per_query", s.reps_pruned_lemma / q, n);
  result.set("rbc.early_exit_skips_per_query",
             s.points_skipped_early_exit / q, n);
  result.set("rbc.work_fraction",
             s.dist_evals_per_query() /
                 static_cast<double>(std::max<index_t>(1, index.info().size)),
             n);
}

rbc::KnnResult time_against_bruteforce(const rbc::Index& index,
                                       const GroundTruth& gt, Result& result) {
  std::vector<double> seconds;
  rbc::KnnResult got;
  for (int rep = 0; rep < 3; ++rep) {
    const auto a = Clock::now();
    got = index.knn_search({.queries = &gt.queries, .k = kK}).knn;
    seconds.push_back(s_between(a, Clock::now()));
  }
  const std::size_t n = gt.queries.rows();
  result.set("bruteforce.evals_per_s",
             static_cast<double>(gt.bf_evals) / gt.bf_seconds, n);
  result.set("rbc.speedup_vs_bruteforce", gt.bf_seconds / median(seconds), n);
  return got;
}

void probe_compute(const rbc::Index& index, const rbc::Matrix<float>& queries,
                   Tracer& tracer, Result& result) {
  ScopedSpan phase(tracer, "phase.compute_probe");
  std::vector<double> us;
  for (index_t i = 0; i < 1000; ++i) {
    const rbc::Matrix<float> one = slice_rows(queries, i, 1);
    const auto a = Clock::now();
    (void)index.knn_search({.queries = &one, .k = kK});
    const auto z = Clock::now();
    tracer.add("api.knn_single", a, z, phase.id(), i);
    us.push_back(1e3 * ms_between(a, z));
  }
  result.set("api.knn_single_us_p50", median(us), us.size());
  const rbc::Matrix<float> block = slice_rows(queries, 0, 1024);
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const auto a = Clock::now();
    (void)index.knn_search({.queries = &block, .k = kK});
    const auto z = Clock::now();
    tracer.add("api.knn_block", a, z, phase.id(), rep);
    ms.push_back(ms_between(a, z));
  }
  result.set("api.knn_block_ms_p50", median(ms), ms.size());
}

void fill_unexercised(Result& result) {
  for (const MetricDef& d : metric_catalogue())
    if (d.kind == MetricDef::kLayer && !result.has(d.name))
      result.set(d.name, 0.0, 0);
}

}  // namespace perfbench
