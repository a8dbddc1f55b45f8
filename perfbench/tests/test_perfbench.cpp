// Unit tests of the benchmark's own machinery: the percentile and
// sample-count rule, the Poisson schedule and its lateness accounting,
// self time from spans, and the output schema.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  std::vector<double> v = one_to(100);
  std::reverse(v.begin(), v.end());  // input order does not matter
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_TRUE(supports_percentile(1000, 99.0));
  EXPECT_FALSE(supports_percentile(999, 99.0));
  EXPECT_TRUE(supports_percentile(20, 50.0));
  EXPECT_FALSE(supports_percentile(19, 50.0));
  EXPECT_TRUE(supports_percentile(10000, 99.9));
  EXPECT_FALSE(supports_percentile(9999, 99.9));
}

TEST(Percentile, WindowsKeepAThousandSamplesEach) {
  EXPECT_EQ(windows_of(one_to(999)).size(), 1u);
  const auto two = windows_of(one_to(2500));
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].size(), 1250u);
  EXPECT_EQ(two[0].front(), 1.0);  // consecutive, in the order taken
  EXPECT_EQ(two[1].front(), 1251.0);
  const auto five = windows_of(one_to(7000));
  ASSERT_EQ(five.size(), 5u);
  for (const auto& w : five) EXPECT_EQ(w.size(), 1400u);
}

TEST(Percentile, LatencyIsTheMedianOverWindows) {
  // Three windows whose p50 are 10, 20 and 30: the result is 20.
  std::vector<std::vector<double>> windows;
  for (double base : {10.0, 30.0, 20.0})
    windows.push_back(std::vector<double>(1000, base));
  Result r;
  set_latency(r, "latency_p50_ms", "latency_p99_ms", windows);
  EXPECT_EQ(r.get("latency_p50_ms"), 20.0);
  EXPECT_EQ(r.get("latency_p99_ms"), 20.0);
  EXPECT_TRUE(r.correct());
}

TEST(Percentile, TooFewSamplesInvalidateTheRun) {
  Result r;
  set_latency(r, "latency_p50_ms", "latency_p99_ms",
              {std::vector<double>(1000, 1.0), std::vector<double>(999, 1.0)});
  EXPECT_FALSE(r.correct());
}

TEST(Schedule, PoissonIsSeededAndHasItsRate) {
  const auto a = poisson_arrivals(2000.0, 10.0, 7);
  EXPECT_EQ(a, poisson_arrivals(2000.0, 10.0, 7));
  EXPECT_NE(a, poisson_arrivals(2000.0, 10.0, 8));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  ASSERT_FALSE(a.empty());
  EXPECT_GT(a.front(), 0.0);
  EXPECT_LT(a.back(), 10.0);
  // 20,000 expected events; the count's standard deviation is ~141.
  EXPECT_NEAR(static_cast<double>(a.size()), 20000.0, 5 * 141.0);
  // Exponential gaps: their coefficient of variation is 1.
  std::vector<double> gaps;
  for (std::size_t i = 1; i < a.size(); ++i) gaps.push_back(a[i] - a[i - 1]);
  const double mean =
      std::accumulate(gaps.begin(), gaps.end(), 0.0) / gaps.size();
  double var = 0.0;
  for (double g : gaps) var += (g - mean) * (g - mean);
  EXPECT_NEAR(mean, 1.0 / 2000.0, 0.05 / 2000.0);
  EXPECT_NEAR(std::sqrt(var / gaps.size()) / mean, 1.0, 0.05);
}

TEST(Schedule, LatenessIsActualMinusScheduledNeverNegative) {
  const Clock::time_point t0{};
  Lateness late;
  for (int i = 0; i < 99; ++i)
    late.record(t0, t0 + std::chrono::microseconds(100));  // 0.1 ms late
  late.record(t0, t0 + std::chrono::milliseconds(7));      // one straggler
  late.record(t0 + std::chrono::seconds(1), t0);           // early: 0
  EXPECT_EQ(late.count(), 101u);
  EXPECT_DOUBLE_EQ(late.max_ms(), 7.0);
  EXPECT_DOUBLE_EQ(late.p99_ms(), 0.1);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer t(true);
  const Clock::time_point z{};
  auto at = [&](int ms) { return z + std::chrono::milliseconds(ms); };
  const std::uint64_t parent = t.next_id();
  t.add("child", at(2), at(4), parent);
  t.add("child", at(3), at(6), parent);   // overlaps the first child
  t.add("child", at(9), at(12), parent);  // runs past the parent's end
  t.add("parent", at(0), at(10), 0, 0, parent);
  ASSERT_EQ(t.self_ms("parent").size(), 1u);
  EXPECT_DOUBLE_EQ(t.self_ms("parent")[0], 10.0 - 4.0 - 1.0);
  EXPECT_EQ(t.durations_ms("child").size(), 3u);

  Tracer off(false);
  EXPECT_EQ(off.next_id(), 0u);
  off.add("x", at(0), at(1));
  EXPECT_TRUE(off.durations_ms("x").empty());
}

TEST(KeepAwake, StartsOneThreadPerCpuAndStops) {
  {
    KeepAwake awake(2);
    // Threads that may not drop to SCHED_IDLE end instead of spinning.
    EXPECT_GE(awake.active(), 0);
    EXPECT_LE(awake.active(), 2);
  }  // the destructor stops and joins every thread
  KeepAwake none(0);
  EXPECT_EQ(none.active(), 0);
}

// ------------------------------------------------------------- schema ---

std::string last_line(const std::string& out, int from_end = 0) {
  std::vector<std::string> lines;
  std::istringstream is(out);
  for (std::string l; std::getline(is, l);) lines.push_back(l);
  return lines.at(lines.size() - 1 - from_end);
}

std::string printed(bool trace) {
  Result r;
  r.workload = "serve-open";
  r.seed = 3;
  r.trace = trace;
  r.attempted = 5;
  for (const MetricDef& d : metric_catalogue()) r.set(d.name, 1.25, 1000);
  testing::internal::CaptureStdout();
  r.print(HostStamp{});
  return testing::internal::GetCapturedStdout();
}

TEST(Schema, ResultLineHasExactlyTheFourKeysAndOneMetricSet) {
  for (const bool trace : {false, true}) {
    const std::string line = last_line(printed(trace));
    EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 5, \"failed\": 0, "
                         "\"metrics\": {",
                         0),
              0u)
        << line;
    for (const MetricDef& d : metric_catalogue()) {
      const std::string entry = "\"" + std::string(d.name) +
                                "\": {\"value\": 1.25, \"unit\": \"" + d.unit +
                                "\"}";
      const bool want = d.kind == (trace ? MetricDef::kLayer
                                         : MetricDef::kEndToEnd);
      EXPECT_EQ(line.find(entry) != std::string::npos, want) << d.name;
    }
  }
}

TEST(Schema, RecordCarriesEveryMetricWithItsSampleCount) {
  const std::string rec = last_line(printed(false), 1);
  EXPECT_EQ(rec.rfind("{\"record\": {\"workload\": \"serve-open\"", 0), 0u);
  EXPECT_NE(rec.find("\"host\": {\"nproc\": "), std::string::npos);
  for (const MetricDef& d : metric_catalogue())
    EXPECT_NE(rec.find("\"" + std::string(d.name) +
                       "\": {\"value\": 1.25, \"unit\": \"" + d.unit +
                       "\", \"samples\": 1000}"),
              std::string::npos)
        << d.name;
}

TEST(Schema, CatalogueMatchesBenchmarkJson) {
  std::ifstream is(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(is) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string json = ss.str();
  const std::size_t layers = json.find("\"per_layer\"");
  ASSERT_NE(layers, std::string::npos);
  std::set<std::string> names;
  std::size_t listed = 0;
  for (const MetricDef& d : metric_catalogue()) {
    EXPECT_TRUE(names.insert(d.name).second) << "duplicate " << d.name;
    const std::size_t at = json.find("\"name\": \"" + std::string(d.name) +
                                     "\",\n      \"unit\": \"" + d.unit + "\"");
    if (d.kind == MetricDef::kRecordOnly) {
      EXPECT_EQ(at, std::string::npos) << d.name;
      continue;
    }
    ++listed;
    ASSERT_NE(at, std::string::npos) << d.name;
    EXPECT_EQ(at > layers, d.kind == MetricDef::kLayer) << d.name;
  }
  // Every metric entry of BENCHMARK.json is in the catalogue.
  std::size_t entries = 0;
  for (std::size_t at = json.find("\"unit\""); at != std::string::npos;
       at = json.find("\"unit\"", at + 1))
    ++entries;
  EXPECT_EQ(entries, listed);
}

}  // namespace
}  // namespace perfbench
