// Runtime ISA selection for the distance-kernel layer (see dispatch.hpp).
//
// Detection uses the compiler's CPUID helpers (__builtin_cpu_supports) so a
// binary carrying AVX2/AVX-512 translation units is safe to run on hosts
// without those units — the table is simply never selected. The
// RBC_FORCE_ISA environment variable (read once, at first use) or
// force_isa() pins the selection for parity tests and benches.
#include "distance/dispatch.hpp"

#include <atomic>
#include <string>

#include "common/env.hpp"
#include "distance/isa_tables.hpp"

namespace rbc::dispatch {

namespace {

constexpr int kUninitialized = -2;
constexpr int kNoForce = -1;

/// Forced-ISA state: kUninitialized until the RBC_FORCE_ISA env var has
/// been consulted, then kNoForce or the forced Isa value.
std::atomic<int> g_forced{kUninitialized};

const KernelOps* table_for(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return detail::scalar_table();
    case Isa::kAvx2:
      return detail::avx2_table();
    case Isa::kAvx512:
      return detail::avx512_table();
  }
  return nullptr;
}

bool cpu_supports(Isa isa) noexcept {
#if defined(__x86_64__) || defined(__i386__)
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
             (!detail::avx2_table_uses_f16c() ||
              __builtin_cpu_supports("f16c"));
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f");
  }
  return false;
#else
  return isa == Isa::kScalar;
#endif
}

Isa detect() noexcept {
  if (isa_available(Isa::kAvx512)) return Isa::kAvx512;
  if (isa_available(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

/// Parses RBC_FORCE_ISA; kNoForce for unset/unknown/unavailable values.
int parse_env_force() {
  const std::string raw = env_or("RBC_FORCE_ISA", std::string{});
  Isa isa = Isa::kScalar;
  if (raw == "scalar") {
    isa = Isa::kScalar;
  } else if (raw == "avx2") {
    isa = Isa::kAvx2;
  } else if (raw == "avx512") {
    isa = Isa::kAvx512;
  } else {
    return kNoForce;
  }
  return isa_available(isa) ? static_cast<int>(isa) : kNoForce;
}

int forced_state() noexcept {
  int state = g_forced.load(std::memory_order_relaxed);
  if (state == kUninitialized) {
    // Racy but idempotent: every thread parses the same environment.
    state = parse_env_force();
    g_forced.store(state, std::memory_order_relaxed);
  }
  return state;
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool isa_compiled(Isa isa) noexcept { return table_for(isa) != nullptr; }

bool isa_available(Isa isa) noexcept {
  return isa_compiled(isa) && cpu_supports(isa);
}

Isa detected_isa() noexcept {
  static const Isa detected = detect();  // CPUID once
  return detected;
}

Isa active_isa() noexcept {
  const int forced = forced_state();
  return forced >= 0 ? static_cast<Isa>(forced) : detected_isa();
}

Isa force_isa(Isa isa) noexcept {
  if (isa_available(isa))
    g_forced.store(static_cast<int>(isa), std::memory_order_relaxed);
  else if (g_forced.load(std::memory_order_relaxed) == kUninitialized)
    g_forced.store(parse_env_force(), std::memory_order_relaxed);
  return active_isa();
}

void clear_forced_isa() noexcept {
  g_forced.store(kNoForce, std::memory_order_relaxed);
}

const KernelOps& ops() noexcept { return *table_for(active_isa()); }

const KernelOps* ops_for(Isa isa) noexcept { return table_for(isa); }

void pack_tile(const float* const* rows, index_t count, index_t d,
               float* qt) {
  for (index_t i = 0; i < d; ++i)
    for (index_t t = 0; t < kTile; ++t)
      qt[static_cast<std::size_t>(i) * kTile + t] =
          rows[t < count ? t : 0][i];
}

void pack_lanes(const float* x, std::size_t stride, index_t n, index_t d,
                float* lanes) {
  const std::size_t blocks = (n + kLanes - 1) / kLanes;
  for (std::size_t b = 0; b < blocks; ++b) {
    float* block = lanes + b * d * kLanes;
    for (index_t l = 0; l < kLanes; ++l) {
      const std::size_t row = b * kLanes + l;
      for (index_t i = 0; i < d; ++i)
        block[static_cast<std::size_t>(i) * kLanes + l] =
            row < n ? x[row * stride + i] : 0.0f;
    }
  }
}

}  // namespace rbc::dispatch
