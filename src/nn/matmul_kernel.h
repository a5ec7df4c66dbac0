// The forward kernel of nn::MatMul, one per instruction-set level of the
// process's kernel selector (util/simd.h).
//
// Bit-identity contract: every kernel computes each output element exactly
// as the scalar loop does — kk ascending, a zero element of A skipped (so
// it hides an inf or NaN in the matching row of B), and a separate
// multiply, then an add onto a sum that starts at +0.0. A vector kernel
// therefore changes the speed and never a bit of the output: embeddings,
// and everything ranked from them, are the same under LAKS_FORCE_SCALAR=1.
// (Where the compiler fuses the scalar loop's multiply-add, as GCC may on
// aarch64, the scalar loop is the only kernel, so the contract still holds
// within a build.)
#ifndef TSFM_NN_MATMUL_KERNEL_H_
#define TSFM_NN_MATMUL_KERNEL_H_

#include <cstddef>

#include "util/simd.h"

namespace tsfm::nn {

/// c[m,n] = a[m,k] * b[k,n], all row-major; `c` must hold zeros on entry.
using MatMulKernelFn = void (*)(const float* a, const float* b, size_t m,
                                size_t k, size_t n, float* c);

/// The kernel for `level`: the AVX2 kernel for SimdLevel::kAvx2, the
/// scalar loop otherwise (and wherever the AVX2 kernel is not compiled in).
MatMulKernelFn MatMulKernel(SimdLevel level);

namespace internal {
/// Defined in matmul_avx2.cc, which CMake compiles (with -mavx2
/// -ffp-contract=off, never -mfma) only on x86-64; referenced only under
/// TSFM_HAVE_AVX2_KERNELS and behind the selector's runtime CPU check.
void MatMulAvx2(const float* a, const float* b, size_t m, size_t k, size_t n,
                float* c);
}  // namespace internal

}  // namespace tsfm::nn

#endif  // TSFM_NN_MATMUL_KERNEL_H_
