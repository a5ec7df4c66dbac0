#include "util/simd.h"

#include <atomic>
#include <cstdlib>

namespace tsfm {

namespace {

bool ForceScalarFromEnv() {
  const char* v = std::getenv("LAKS_FORCE_SCALAR");
  // Any non-empty value other than "0" forces scalar.
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

SimdLevel SelectSimdLevel() {
  return ForceScalarFromEnv() ? SimdLevel::kScalar : BestSimdLevel();
}

// The selected SimdLevel as an int; -1 until the first ActiveSimdLevel().
std::atomic<int> g_active{-1};

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

SimdLevel ActiveSimdLevel() {
  int active = g_active.load();
  if (active < 0) {
    // Selection is deterministic, so a racing first call resolves to the
    // same level whichever store wins.
    int expected = -1;
    g_active.compare_exchange_strong(expected,
                                     static_cast<int>(SelectSimdLevel()));
    active = g_active.load();
  }
  return static_cast<SimdLevel>(active);
}

SimdLevel BestSimdLevel() {
#if defined(TSFM_HAVE_AVX2_KERNELS)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return SimdLevel::kAvx2;
  }
#endif
#if defined(__aarch64__)
  return SimdLevel::kNeon;
#else
  return SimdLevel::kScalar;
#endif
}

namespace internal {

void OverrideSimdLevelForTest(std::optional<SimdLevel> level) {
  g_active.store(static_cast<int>(level.value_or(SelectSimdLevel())));
}

bool ForceScalarFromEnvForTest() { return ForceScalarFromEnv(); }

}  // namespace internal

}  // namespace tsfm
