// Data-parallel loop primitives over index ranges.
//
// These are thin, zero-allocation wrappers around OpenMP worksharing; they
// exist so call sites express *what* is parallel (a range and a body) rather
// than *how* (pragmas), and so a non-OpenMP build still compiles and runs
// serially. Bodies must not share mutable state (CP.2): give each iteration
// its own output slot and combine the slots after the loop. A loop of one
// iteration (one block) runs on the calling thread without forking the
// team; thread_id() is then 0, so per-thread arrays sized by max_threads()
// stay valid.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace rbc {

/// Calls f(i) for every i in [begin, end), statically scheduled.
/// Best for bodies with uniform cost (e.g. one row of a distance tile).
template <class F>
void parallel_for(std::int64_t begin, std::int64_t end, F&& f) {
#pragma omp parallel for schedule(static) if (end - begin > 1)
  for (std::int64_t i = begin; i < end; ++i) f(static_cast<index_t>(i));
}

/// Calls f(i) for every i in [begin, end), dynamically scheduled one
/// iteration at a time, so a loop of a few iterations still spreads over
/// the team. Best for irregular bodies (e.g. one RBC query, whose cost
/// depends on how many representatives survive pruning).
template <class F>
void parallel_for_dynamic(std::int64_t begin, std::int64_t end, F&& f) {
#pragma omp parallel for schedule(dynamic, 1) if (end - begin > 1)
  for (std::int64_t i = begin; i < end; ++i) f(static_cast<index_t>(i));
}

/// Splits [begin, end) into contiguous blocks of at most `grain` elements and
/// calls f(block_begin, block_end) for each, dynamically scheduled. Used for
/// tiled computations where the body wants a whole block (e.g. rows that
/// share one distance buffer, or a chunk of the database in streaming
/// search).
template <class F>
void parallel_for_blocked(std::int64_t begin, std::int64_t end,
                          std::int64_t grain, F&& f) {
  if (grain < 1) grain = 1;
  const std::int64_t num_blocks = (end - begin + grain - 1) / grain;
#pragma omp parallel for schedule(dynamic, 1) if (num_blocks > 1)
  for (std::int64_t b = 0; b < num_blocks; ++b) {
    const std::int64_t lo = begin + b * grain;
    const std::int64_t hi = lo + grain < end ? lo + grain : end;
    f(static_cast<index_t>(lo), static_cast<index_t>(hi));
  }
}

}  // namespace rbc
