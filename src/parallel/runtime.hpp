// Thread-count control for the parallel runtime.
//
// The library parallelizes with OpenMP (the paper's CPU implementation did the
// same). These helpers wrap the OpenMP runtime so the rest of the code never
// touches omp.h directly, and so builds without OpenMP degrade to serial.
#pragma once

namespace rbc {

/// Number of threads parallel_for will use (the current OpenMP max).
int max_threads();

/// Sets the global thread count. Values < 1 are clamped to 1.
void set_num_threads(int n);

/// Identifier of the calling thread within a parallel region, in
/// [0, max_threads()). Returns 0 outside parallel regions.
int thread_id();

/// True inside an active parallel region (one whose team has more than one
/// thread), where a nested loop would run serially on the calling thread.
bool in_parallel();

/// RAII override of the global thread count; restores on destruction.
/// Used by benchmarks that compare single-core vs all-core configurations
/// (e.g. the Cover Tree comparison, paper §7.4).
class ThreadLimit {
 public:
  explicit ThreadLimit(int n);
  ~ThreadLimit();
  ThreadLimit(const ThreadLimit&) = delete;
  ThreadLimit& operator=(const ThreadLimit&) = delete;

 private:
  int saved_;
};

}  // namespace rbc
