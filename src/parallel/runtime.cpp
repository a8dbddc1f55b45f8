#include "parallel/runtime.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace rbc {

int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_num_threads(int n) {
  if (n < 1) n = 1;
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

int thread_id() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

bool in_parallel() {
#ifdef _OPENMP
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

ThreadLimit::ThreadLimit(int n) : saved_(max_threads()) { set_num_threads(n); }

ThreadLimit::~ThreadLimit() { set_num_threads(saved_); }

}  // namespace rbc
