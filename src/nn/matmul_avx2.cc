// AVX2 forward kernel of nn::MatMul. This TU is compiled with -mavx2
// -ffp-contract=off and never -mfma (see CMakeLists.txt): a fused
// multiply-add rounds once where the scalar loop rounds twice, so FMA
// would change the low bits of every output and break the bit-identity
// contract in matmul_kernel.h. It is only reached through the runtime CPU
// check in util/simd.cc.
//
// When the build does not enable the kernels (non-x86 target, or a
// compiler without the flags) TSFM_HAVE_AVX2_KERNELS is undefined and this
// TU compiles empty — MatMulKernel never references it then.
#ifdef TSFM_HAVE_AVX2_KERNELS

#include <immintrin.h>

#include <cstddef>

#include "nn/matmul_kernel.h"

namespace tsfm::nn {
namespace {

// Outputs [j, j + 8 * kVecs) of one row of C, held in kVecs registers
// across the whole kk loop. Each lane sees the scalar loop's sequence:
// kk ascending, zero A elements skipped, multiply, then add.
template <int kVecs>
inline void Strip(const float* arow, const float* b, size_t k, size_t n,
                  size_t j, float* crow) {
  __m256 acc[kVecs];
  for (int v = 0; v < kVecs; ++v) acc[v] = _mm256_setzero_ps();
  for (size_t kk = 0; kk < k; ++kk) {
    const float av = arow[kk];
    if (av == 0.0f) continue;
    const __m256 a = _mm256_set1_ps(av);
    const float* brow = b + kk * n + j;
    for (int v = 0; v < kVecs; ++v) {
      acc[v] = _mm256_add_ps(
          acc[v], _mm256_mul_ps(a, _mm256_loadu_ps(brow + 8 * v)));
    }
  }
  for (int v = 0; v < kVecs; ++v) _mm256_storeu_ps(crow + j + 8 * v, acc[v]);
}

}  // namespace

namespace internal {

void MatMulAvx2(const float* a, const float* b, size_t m, size_t k, size_t n,
                float* c) {
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    size_t j = 0;
    for (; j + 32 <= n; j += 32) Strip<4>(arow, b, k, n, j, crow);
    switch ((n - j) / 8) {
      case 3:
        Strip<3>(arow, b, k, n, j, crow);
        j += 24;
        break;
      case 2:
        Strip<2>(arow, b, k, n, j, crow);
        j += 16;
        break;
      case 1:
        Strip<1>(arow, b, k, n, j, crow);
        j += 8;
        break;
      default:
        break;
    }
    if (j == n) continue;
    // The last n % 8 outputs: the scalar loop itself, accumulating in C.
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (size_t t = j; t < n; ++t) crow[t] += av * brow[t];
    }
  }
}

}  // namespace internal

}  // namespace tsfm::nn

#endif  // TSFM_HAVE_AVX2_KERNELS
