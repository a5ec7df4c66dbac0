// The process's one kernel selector.
//
// Two kernel families dispatch on the CPU: the search stack's distance
// kernels (search/distance_kernels.h) and nn::MatMul's forward pass
// (nn/matmul_kernel.h). Both ask this module which instruction set to use,
// so the cpuid check, the LAKS_FORCE_SCALAR override and the test override
// live here once, and one switch moves every family together.
//
// Setting LAKS_FORCE_SCALAR=1 in the environment forces kScalar regardless
// of CPU, so SIMD/scalar parity is testable on any machine (CI runs the
// whole tier-1 suite once per mode).
#ifndef TSFM_UTIL_SIMD_H_
#define TSFM_UTIL_SIMD_H_

#include <optional>

namespace tsfm {

/// An instruction-set level the kernel families are compiled for.
enum class SimdLevel {
  kScalar,  ///< portable loops only
  kAvx2,    ///< x86-64 AVX2 + FMA (the MatMul kernel uses no FMA)
  kNeon,    ///< aarch64 Advanced SIMD
};

/// "scalar", "avx2" or "neon".
const char* SimdLevelName(SimdLevel level);

/// \brief The level every kernel family uses, selected once at first call.
///
/// BestSimdLevel() unless LAKS_FORCE_SCALAR=1 forces kScalar.
SimdLevel ActiveSimdLevel();

/// \brief The best level for this CPU and build, ignoring
/// LAKS_FORCE_SCALAR.
///
/// kAvx2 when the AVX2 kernels are compiled in (x86-64, TU flags accepted)
/// and the CPU has AVX2 and FMA; kNeon on aarch64; kScalar otherwise. Lets
/// parity tests and benches compare scalar and SIMD in one process even
/// when the process-wide selection was forced scalar.
SimdLevel BestSimdLevel();

namespace internal {
/// Replaces the process-wide selection (nullopt restores the automatic
/// choice, re-reading LAKS_FORCE_SCALAR). For tests and benches only: lets
/// one process run the same work under two levels. Not meant to be called
/// while kernels run on other threads.
void OverrideSimdLevelForTest(std::optional<SimdLevel> level);

/// Whether LAKS_FORCE_SCALAR currently forces kScalar. Test-only: lets the
/// env-override test restore whatever selection the surrounding process
/// was launched with.
bool ForceScalarFromEnvForTest();
}  // namespace internal

}  // namespace tsfm

#endif  // TSFM_UTIL_SIMD_H_
