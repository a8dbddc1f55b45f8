// perfbench_run: one run of one benchmark workload.
//
//   perfbench_run --workload <batch-exact|serve-open|ingest-rw> --seed <n>
//                 --seconds <s> --trace <0|1> [--git-sha <sha>]
//                 [--out-dir <dir>]
//
// Prints a human-readable summary, a {"record": ...} line (host stamp and
// every metric with its sample count) and, last, the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1). perfbench/run.py builds this binary and drives it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

/// Threads the load generator itself uses, plus its connections; each must
/// have a CPU of its own or the generator measures its own queueing.
int load_budget(const std::string& workload) {
  if (workload == "serve-open") return 1 + 2;  // 1 generator, 2 connections
  if (workload == "ingest-rw") return 2 + 1;   // 2 readers, 1 writer
  return 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_run: %s\nusage: perfbench_run --workload "
               "<batch-exact|serve-open|ingest-rw> --seed <n> --seconds <s> "
               "--trace <0|1> [--git-sha <sha>] [--out-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string git_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return usage("bad --seed");
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(cfg.seconds > 0.0) ||
          cfg.seconds > 120.0)
        return usage("--seconds must be in (0, 120]");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage("--trace must be 0 or 1");
      cfg.trace = val == "1";
    } else if (key == "--git-sha") {
      git_sha = val;
    } else if (key == "--out-dir") {
      cfg.out_dir = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  void (*run)(const RunConfig&, Result&, Tracer&, Watchdog&) = nullptr;
  if (cfg.workload == "batch-exact") run = run_batch_exact;
  if (cfg.workload == "serve-open") run = run_serve_open;
  if (cfg.workload == "ingest-rw") run = run_ingest_rw;
  if (run == nullptr) return usage("unknown --workload");

  HostStamp host = host_stamp(git_sha);
  if (host.build_type != "Release") {
    std::fprintf(stderr, "perfbench_run: refusing to measure a %s build\n",
                 host.build_type.c_str());
    return 2;
  }
  if (load_budget(cfg.workload) > host.nproc) {
    std::fprintf(stderr,
                 "perfbench_run: %s needs %d threads plus connections for "
                 "its load generator, host has %d CPUs\n",
                 cfg.workload.c_str(), load_budget(cfg.workload), host.nproc);
    return 2;
  }

  Result result;
  result.workload = cfg.workload;
  result.seed = cfg.seed;
  result.seconds = cfg.seconds;
  result.trace = cfg.trace;
  Tracer tracer(cfg.trace);
  const auto origin = Clock::now();

  result.set("host.probe_ms", host_probe_ms(), 5);
  const CpuTimes cpu0 = read_cpu_times();
  {
    KeepAwake awake(host.nproc);
    host.keep_awake = awake.active();
    // The whole run, set-up and checks included, must end well inside the
    // 180 s a run is allowed.
    Watchdog watchdog(result, host, 150.0);
    try {
      run(cfg, result, tracer, watchdog);
    } catch (const std::exception& e) {
      // Operations still in flight when the workload gave up never finished.
      result.failed +=
          std::max<std::uint64_t>(1, watchdog.unfinished.exchange(0));
      result.invalidate(std::string("workload aborted: ") + e.what());
    }
  }
  result.set("host.steal_frac", steal_fraction(cpu0, read_cpu_times()));

  if (cfg.trace) {
    fill_unexercised(result);
    tracer.print_summary();
    if (!cfg.out_dir.empty()) {
      const std::string path = cfg.out_dir + "/trace-" + cfg.workload +
                               "-seed" + std::to_string(cfg.seed) + ".jsonl";
      if (!tracer.write(path, origin))
        std::fprintf(stderr, "perfbench_run: cannot write %s\n", path.c_str());
    }
  }
  result.print(host);
  return 0;
}
