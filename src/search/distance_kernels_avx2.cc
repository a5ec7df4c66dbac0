// AVX2+FMA kernel set. This TU is the only one compiled with
// -mavx2 -mfma (see CMakeLists.txt), and is only reached through the
// runtime CPU check in util/simd.cc — so nothing here may be called, and no
// header inline function may be instantiated, from this TU in a way that
// could be linked into the portable path (a scalar-looking inline compiled
// here still carries VEX encodings). Everything below is file-local except
// internal::Avx2Kernels().
//
// When the build does not enable the kernels (non-x86 target, or a
// compiler without -mavx2 -mfma) TSFM_HAVE_AVX2_KERNELS is undefined and
// this TU compiles empty — the dispatch never references it then.
#ifdef TSFM_HAVE_AVX2_KERNELS

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "search/distance_kernels.h"

namespace tsfm::search {
namespace {

// Mask whose first `tail` (1..7) lanes are set — maskload zeroes the rest,
// so sub-8 tails contribute exact values without reading past the row.
inline __m256i TailMask(size_t tail) {
  alignas(32) static constexpr int32_t kMaskSource[16] = {
      -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskSource + 8 - tail));
}

inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  return _mm_cvtss_f32(lo);
}

float DotAvx2(const float* a, const float* b, size_t n) {
  // Four independent 8-wide accumulators: enough FMA chains in flight to
  // hide the FMA latency and run at the load-port limit.
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                           _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                           _mm256_loadu_ps(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  if (i < n) {
    const __m256i mask = TailMask(n - i);
    acc1 = _mm256_fmadd_ps(_mm256_maskload_ps(a + i, mask),
                           _mm256_maskload_ps(b + i, mask), acc1);
  }
  return HorizontalSum(
      _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3)));
}

float L2SqAvx2(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    const __m256 d2 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 16), _mm256_loadu_ps(b + i + 16));
    const __m256 d3 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 24), _mm256_loadu_ps(b + i + 24));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
    acc2 = _mm256_fmadd_ps(d2, d2, acc2);
    acc3 = _mm256_fmadd_ps(d3, d3, acc3);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  if (i < n) {
    const __m256i mask = TailMask(n - i);
    // Masked-off lanes are 0 - 0 = 0 and contribute nothing.
    const __m256 d = _mm256_sub_ps(_mm256_maskload_ps(a + i, mask),
                                   _mm256_maskload_ps(b + i, mask));
    acc1 = _mm256_fmadd_ps(d, d, acc1);
  }
  return HorizontalSum(
      _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3)));
}

// Widens 8 uint8 codes to an 8-lane float vector. cvtepu8 + cvtepi32 is
// the cheapest correct ladder here: every code is exactly representable in
// float, so the asymmetric kernels stay bit-deterministic per ISA.
inline __m256 LoadU8x8(const uint8_t* p) {
  const __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
}

float DotSq8Avx2(const float* q, const uint8_t* row, size_t n) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q + i), LoadU8x8(row + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(q + i + 8), LoadU8x8(row + i + 8),
                           acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q + i), LoadU8x8(row + i), acc0);
  }
  float s = HorizontalSum(_mm256_add_ps(acc0, acc1));
  // No masked u8 load exists; the sub-8 tail stays scalar.
  for (; i < n; ++i) s += q[i] * static_cast<float>(row[i]);
  return s;
}

float L2SqSq8Avx2(const float* q, const uint8_t* row, size_t n) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(q + i), LoadU8x8(row + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(q + i + 8), LoadU8x8(row + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(q + i), LoadU8x8(row + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float s = HorizontalSum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    const float d = q[i] - static_cast<float>(row[i]);
    s += d * d;
  }
  return s;
}

// ----------------------------------------------------- multi-query tiles
// Register-tiled mini-GEMM: 2 queries × 4 rows abreast, so each of the
// four row loads per step feeds two FMAs and each of the two query loads
// feeds four — 8 accumulators + 2 query registers + 4 row registers stays
// inside the 16 ymm budget (a 4×4 tile would need 24 and spill).
//
// Batch-size contract (distance_kernels.h): every (query, row) pair
// accumulates the same way whether its query sits in a 2-query tile or
// runs alone — one 8-wide FMA chain over dim with a masked tail inside
// full groups of 4 rows, the pairwise kernel for the < 4 remainder rows.
// The query tiling only reorders *which* pair runs when, never the ops
// within a pair, so ScanTopKMulti's hits for a query do not depend on the
// batch it rides in.

void DotMultiAvx2(const float* queries, size_t num_queries, const float* rows,
                  size_t num_rows, size_t dim, float* out) {
  size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    const float* r0 = rows + r * dim;
    const float* r1 = r0 + dim;
    const float* r2 = r1 + dim;
    const float* r3 = r2 + dim;
    size_t q = 0;
    for (; q + 2 <= num_queries; q += 2) {
      const float* qa = queries + q * dim;
      const float* qb = qa + dim;
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
      __m256 b0 = _mm256_setzero_ps(), b1 = _mm256_setzero_ps();
      __m256 b2 = _mm256_setzero_ps(), b3 = _mm256_setzero_ps();
      size_t i = 0;
      for (; i + 8 <= dim; i += 8) {
        const __m256 va = _mm256_loadu_ps(qa + i);
        const __m256 vb = _mm256_loadu_ps(qb + i);
        const __m256 m0 = _mm256_loadu_ps(r0 + i);
        const __m256 m1 = _mm256_loadu_ps(r1 + i);
        const __m256 m2 = _mm256_loadu_ps(r2 + i);
        const __m256 m3 = _mm256_loadu_ps(r3 + i);
        a0 = _mm256_fmadd_ps(va, m0, a0);
        a1 = _mm256_fmadd_ps(va, m1, a1);
        a2 = _mm256_fmadd_ps(va, m2, a2);
        a3 = _mm256_fmadd_ps(va, m3, a3);
        b0 = _mm256_fmadd_ps(vb, m0, b0);
        b1 = _mm256_fmadd_ps(vb, m1, b1);
        b2 = _mm256_fmadd_ps(vb, m2, b2);
        b3 = _mm256_fmadd_ps(vb, m3, b3);
      }
      if (i < dim) {
        const __m256i mask = TailMask(dim - i);
        const __m256 va = _mm256_maskload_ps(qa + i, mask);
        const __m256 vb = _mm256_maskload_ps(qb + i, mask);
        const __m256 m0 = _mm256_maskload_ps(r0 + i, mask);
        const __m256 m1 = _mm256_maskload_ps(r1 + i, mask);
        const __m256 m2 = _mm256_maskload_ps(r2 + i, mask);
        const __m256 m3 = _mm256_maskload_ps(r3 + i, mask);
        a0 = _mm256_fmadd_ps(va, m0, a0);
        a1 = _mm256_fmadd_ps(va, m1, a1);
        a2 = _mm256_fmadd_ps(va, m2, a2);
        a3 = _mm256_fmadd_ps(va, m3, a3);
        b0 = _mm256_fmadd_ps(vb, m0, b0);
        b1 = _mm256_fmadd_ps(vb, m1, b1);
        b2 = _mm256_fmadd_ps(vb, m2, b2);
        b3 = _mm256_fmadd_ps(vb, m3, b3);
      }
      float* oa = out + q * num_rows + r;
      float* ob = oa + num_rows;
      oa[0] = HorizontalSum(a0);
      oa[1] = HorizontalSum(a1);
      oa[2] = HorizontalSum(a2);
      oa[3] = HorizontalSum(a3);
      ob[0] = HorizontalSum(b0);
      ob[1] = HorizontalSum(b1);
      ob[2] = HorizontalSum(b2);
      ob[3] = HorizontalSum(b3);
    }
    if (q < num_queries) {
      // Odd query out: the same per-pair FMA chain, one query wide.
      const float* qa = queries + q * dim;
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
      size_t i = 0;
      for (; i + 8 <= dim; i += 8) {
        const __m256 va = _mm256_loadu_ps(qa + i);
        a0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(r0 + i), a0);
        a1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(r1 + i), a1);
        a2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(r2 + i), a2);
        a3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(r3 + i), a3);
      }
      if (i < dim) {
        const __m256i mask = TailMask(dim - i);
        const __m256 va = _mm256_maskload_ps(qa + i, mask);
        a0 = _mm256_fmadd_ps(va, _mm256_maskload_ps(r0 + i, mask), a0);
        a1 = _mm256_fmadd_ps(va, _mm256_maskload_ps(r1 + i, mask), a1);
        a2 = _mm256_fmadd_ps(va, _mm256_maskload_ps(r2 + i, mask), a2);
        a3 = _mm256_fmadd_ps(va, _mm256_maskload_ps(r3 + i, mask), a3);
      }
      float* oa = out + q * num_rows + r;
      oa[0] = HorizontalSum(a0);
      oa[1] = HorizontalSum(a1);
      oa[2] = HorizontalSum(a2);
      oa[3] = HorizontalSum(a3);
    }
  }
  // Remainder rows: pairwise kernel per (query, row).
  for (; r < num_rows; ++r) {
    for (size_t q = 0; q < num_queries; ++q) {
      out[q * num_rows + r] = DotAvx2(queries + q * dim, rows + r * dim, dim);
    }
  }
}

void L2SqMultiAvx2(const float* queries, size_t num_queries,
                   const float* rows, size_t num_rows, size_t dim,
                   float* out) {
  size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    const float* r0 = rows + r * dim;
    const float* r1 = r0 + dim;
    const float* r2 = r1 + dim;
    const float* r3 = r2 + dim;
    size_t q = 0;
    for (; q + 2 <= num_queries; q += 2) {
      const float* qa = queries + q * dim;
      const float* qb = qa + dim;
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
      __m256 b0 = _mm256_setzero_ps(), b1 = _mm256_setzero_ps();
      __m256 b2 = _mm256_setzero_ps(), b3 = _mm256_setzero_ps();
      size_t i = 0;
      for (; i + 8 <= dim; i += 8) {
        const __m256 va = _mm256_loadu_ps(qa + i);
        const __m256 vb = _mm256_loadu_ps(qb + i);
        const __m256 m0 = _mm256_loadu_ps(r0 + i);
        const __m256 m1 = _mm256_loadu_ps(r1 + i);
        const __m256 m2 = _mm256_loadu_ps(r2 + i);
        const __m256 m3 = _mm256_loadu_ps(r3 + i);
        const __m256 da0 = _mm256_sub_ps(va, m0);
        const __m256 da1 = _mm256_sub_ps(va, m1);
        const __m256 da2 = _mm256_sub_ps(va, m2);
        const __m256 da3 = _mm256_sub_ps(va, m3);
        a0 = _mm256_fmadd_ps(da0, da0, a0);
        a1 = _mm256_fmadd_ps(da1, da1, a1);
        a2 = _mm256_fmadd_ps(da2, da2, a2);
        a3 = _mm256_fmadd_ps(da3, da3, a3);
        const __m256 db0 = _mm256_sub_ps(vb, m0);
        const __m256 db1 = _mm256_sub_ps(vb, m1);
        const __m256 db2 = _mm256_sub_ps(vb, m2);
        const __m256 db3 = _mm256_sub_ps(vb, m3);
        b0 = _mm256_fmadd_ps(db0, db0, b0);
        b1 = _mm256_fmadd_ps(db1, db1, b1);
        b2 = _mm256_fmadd_ps(db2, db2, b2);
        b3 = _mm256_fmadd_ps(db3, db3, b3);
      }
      if (i < dim) {
        const __m256i mask = TailMask(dim - i);
        const __m256 va = _mm256_maskload_ps(qa + i, mask);
        const __m256 vb = _mm256_maskload_ps(qb + i, mask);
        const __m256 m0 = _mm256_maskload_ps(r0 + i, mask);
        const __m256 m1 = _mm256_maskload_ps(r1 + i, mask);
        const __m256 m2 = _mm256_maskload_ps(r2 + i, mask);
        const __m256 m3 = _mm256_maskload_ps(r3 + i, mask);
        const __m256 da0 = _mm256_sub_ps(va, m0);
        const __m256 da1 = _mm256_sub_ps(va, m1);
        const __m256 da2 = _mm256_sub_ps(va, m2);
        const __m256 da3 = _mm256_sub_ps(va, m3);
        a0 = _mm256_fmadd_ps(da0, da0, a0);
        a1 = _mm256_fmadd_ps(da1, da1, a1);
        a2 = _mm256_fmadd_ps(da2, da2, a2);
        a3 = _mm256_fmadd_ps(da3, da3, a3);
        const __m256 db0 = _mm256_sub_ps(vb, m0);
        const __m256 db1 = _mm256_sub_ps(vb, m1);
        const __m256 db2 = _mm256_sub_ps(vb, m2);
        const __m256 db3 = _mm256_sub_ps(vb, m3);
        b0 = _mm256_fmadd_ps(db0, db0, b0);
        b1 = _mm256_fmadd_ps(db1, db1, b1);
        b2 = _mm256_fmadd_ps(db2, db2, b2);
        b3 = _mm256_fmadd_ps(db3, db3, b3);
      }
      float* oa = out + q * num_rows + r;
      float* ob = oa + num_rows;
      oa[0] = HorizontalSum(a0);
      oa[1] = HorizontalSum(a1);
      oa[2] = HorizontalSum(a2);
      oa[3] = HorizontalSum(a3);
      ob[0] = HorizontalSum(b0);
      ob[1] = HorizontalSum(b1);
      ob[2] = HorizontalSum(b2);
      ob[3] = HorizontalSum(b3);
    }
    if (q < num_queries) {
      const float* qa = queries + q * dim;
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
      size_t i = 0;
      for (; i + 8 <= dim; i += 8) {
        const __m256 va = _mm256_loadu_ps(qa + i);
        const __m256 d0 = _mm256_sub_ps(va, _mm256_loadu_ps(r0 + i));
        const __m256 d1 = _mm256_sub_ps(va, _mm256_loadu_ps(r1 + i));
        const __m256 d2 = _mm256_sub_ps(va, _mm256_loadu_ps(r2 + i));
        const __m256 d3 = _mm256_sub_ps(va, _mm256_loadu_ps(r3 + i));
        a0 = _mm256_fmadd_ps(d0, d0, a0);
        a1 = _mm256_fmadd_ps(d1, d1, a1);
        a2 = _mm256_fmadd_ps(d2, d2, a2);
        a3 = _mm256_fmadd_ps(d3, d3, a3);
      }
      if (i < dim) {
        const __m256i mask = TailMask(dim - i);
        const __m256 va = _mm256_maskload_ps(qa + i, mask);
        const __m256 d0 = _mm256_sub_ps(va, _mm256_maskload_ps(r0 + i, mask));
        const __m256 d1 = _mm256_sub_ps(va, _mm256_maskload_ps(r1 + i, mask));
        const __m256 d2 = _mm256_sub_ps(va, _mm256_maskload_ps(r2 + i, mask));
        const __m256 d3 = _mm256_sub_ps(va, _mm256_maskload_ps(r3 + i, mask));
        a0 = _mm256_fmadd_ps(d0, d0, a0);
        a1 = _mm256_fmadd_ps(d1, d1, a1);
        a2 = _mm256_fmadd_ps(d2, d2, a2);
        a3 = _mm256_fmadd_ps(d3, d3, a3);
      }
      float* oa = out + q * num_rows + r;
      oa[0] = HorizontalSum(a0);
      oa[1] = HorizontalSum(a1);
      oa[2] = HorizontalSum(a2);
      oa[3] = HorizontalSum(a3);
    }
  }
  for (; r < num_rows; ++r) {
    for (size_t q = 0; q < num_queries; ++q) {
      out[q * num_rows + r] = L2SqAvx2(queries + q * dim, rows + r * dim, dim);
    }
  }
}

// Sq8 multi tiles: same 2×4 shape; the u8 widening (LoadU8x8) is shared
// by both queries of the tile. The paired and the odd-query bodies must
// handle the tail identically — horizontal-sum the vector accumulators
// FIRST, then add the sub-8 scalar tail (no masked u8 load exists) — or
// the float rounding order, and with it batch-size invariance, would
// differ.
void DotMultiSq8Avx2(const float* queries, size_t num_queries,
                     const uint8_t* rows, size_t num_rows, size_t dim,
                     float* out) {
  size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    const uint8_t* r0 = rows + r * dim;
    const uint8_t* r1 = r0 + dim;
    const uint8_t* r2 = r1 + dim;
    const uint8_t* r3 = r2 + dim;
    size_t q = 0;
    for (; q + 2 <= num_queries; q += 2) {
      const float* qa = queries + q * dim;
      const float* qb = qa + dim;
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
      __m256 b0 = _mm256_setzero_ps(), b1 = _mm256_setzero_ps();
      __m256 b2 = _mm256_setzero_ps(), b3 = _mm256_setzero_ps();
      size_t i = 0;
      for (; i + 8 <= dim; i += 8) {
        const __m256 va = _mm256_loadu_ps(qa + i);
        const __m256 vb = _mm256_loadu_ps(qb + i);
        const __m256 m0 = LoadU8x8(r0 + i);
        const __m256 m1 = LoadU8x8(r1 + i);
        const __m256 m2 = LoadU8x8(r2 + i);
        const __m256 m3 = LoadU8x8(r3 + i);
        a0 = _mm256_fmadd_ps(va, m0, a0);
        a1 = _mm256_fmadd_ps(va, m1, a1);
        a2 = _mm256_fmadd_ps(va, m2, a2);
        a3 = _mm256_fmadd_ps(va, m3, a3);
        b0 = _mm256_fmadd_ps(vb, m0, b0);
        b1 = _mm256_fmadd_ps(vb, m1, b1);
        b2 = _mm256_fmadd_ps(vb, m2, b2);
        b3 = _mm256_fmadd_ps(vb, m3, b3);
      }
      float sa0 = HorizontalSum(a0), sa1 = HorizontalSum(a1);
      float sa2 = HorizontalSum(a2), sa3 = HorizontalSum(a3);
      float sb0 = HorizontalSum(b0), sb1 = HorizontalSum(b1);
      float sb2 = HorizontalSum(b2), sb3 = HorizontalSum(b3);
      for (; i < dim; ++i) {
        const float fa = qa[i];
        const float fb = qb[i];
        const float u0 = static_cast<float>(r0[i]);
        const float u1 = static_cast<float>(r1[i]);
        const float u2 = static_cast<float>(r2[i]);
        const float u3 = static_cast<float>(r3[i]);
        sa0 += fa * u0;
        sa1 += fa * u1;
        sa2 += fa * u2;
        sa3 += fa * u3;
        sb0 += fb * u0;
        sb1 += fb * u1;
        sb2 += fb * u2;
        sb3 += fb * u3;
      }
      float* oa = out + q * num_rows + r;
      float* ob = oa + num_rows;
      oa[0] = sa0;
      oa[1] = sa1;
      oa[2] = sa2;
      oa[3] = sa3;
      ob[0] = sb0;
      ob[1] = sb1;
      ob[2] = sb2;
      ob[3] = sb3;
    }
    if (q < num_queries) {
      const float* qa = queries + q * dim;
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
      size_t i = 0;
      for (; i + 8 <= dim; i += 8) {
        const __m256 va = _mm256_loadu_ps(qa + i);
        a0 = _mm256_fmadd_ps(va, LoadU8x8(r0 + i), a0);
        a1 = _mm256_fmadd_ps(va, LoadU8x8(r1 + i), a1);
        a2 = _mm256_fmadd_ps(va, LoadU8x8(r2 + i), a2);
        a3 = _mm256_fmadd_ps(va, LoadU8x8(r3 + i), a3);
      }
      float s0 = HorizontalSum(a0), s1 = HorizontalSum(a1);
      float s2 = HorizontalSum(a2), s3 = HorizontalSum(a3);
      for (; i < dim; ++i) {
        const float fa = qa[i];
        s0 += fa * static_cast<float>(r0[i]);
        s1 += fa * static_cast<float>(r1[i]);
        s2 += fa * static_cast<float>(r2[i]);
        s3 += fa * static_cast<float>(r3[i]);
      }
      float* oa = out + q * num_rows + r;
      oa[0] = s0;
      oa[1] = s1;
      oa[2] = s2;
      oa[3] = s3;
    }
  }
  for (; r < num_rows; ++r) {
    for (size_t q = 0; q < num_queries; ++q) {
      out[q * num_rows + r] =
          DotSq8Avx2(queries + q * dim, rows + r * dim, dim);
    }
  }
}

void L2SqMultiSq8Avx2(const float* queries, size_t num_queries,
                      const uint8_t* rows, size_t num_rows, size_t dim,
                      float* out) {
  size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    const uint8_t* r0 = rows + r * dim;
    const uint8_t* r1 = r0 + dim;
    const uint8_t* r2 = r1 + dim;
    const uint8_t* r3 = r2 + dim;
    size_t q = 0;
    for (; q + 2 <= num_queries; q += 2) {
      const float* qa = queries + q * dim;
      const float* qb = qa + dim;
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
      __m256 b0 = _mm256_setzero_ps(), b1 = _mm256_setzero_ps();
      __m256 b2 = _mm256_setzero_ps(), b3 = _mm256_setzero_ps();
      size_t i = 0;
      for (; i + 8 <= dim; i += 8) {
        const __m256 va = _mm256_loadu_ps(qa + i);
        const __m256 vb = _mm256_loadu_ps(qb + i);
        const __m256 m0 = LoadU8x8(r0 + i);
        const __m256 m1 = LoadU8x8(r1 + i);
        const __m256 m2 = LoadU8x8(r2 + i);
        const __m256 m3 = LoadU8x8(r3 + i);
        const __m256 da0 = _mm256_sub_ps(va, m0);
        const __m256 da1 = _mm256_sub_ps(va, m1);
        const __m256 da2 = _mm256_sub_ps(va, m2);
        const __m256 da3 = _mm256_sub_ps(va, m3);
        a0 = _mm256_fmadd_ps(da0, da0, a0);
        a1 = _mm256_fmadd_ps(da1, da1, a1);
        a2 = _mm256_fmadd_ps(da2, da2, a2);
        a3 = _mm256_fmadd_ps(da3, da3, a3);
        const __m256 db0 = _mm256_sub_ps(vb, m0);
        const __m256 db1 = _mm256_sub_ps(vb, m1);
        const __m256 db2 = _mm256_sub_ps(vb, m2);
        const __m256 db3 = _mm256_sub_ps(vb, m3);
        b0 = _mm256_fmadd_ps(db0, db0, b0);
        b1 = _mm256_fmadd_ps(db1, db1, b1);
        b2 = _mm256_fmadd_ps(db2, db2, b2);
        b3 = _mm256_fmadd_ps(db3, db3, b3);
      }
      float sa0 = HorizontalSum(a0), sa1 = HorizontalSum(a1);
      float sa2 = HorizontalSum(a2), sa3 = HorizontalSum(a3);
      float sb0 = HorizontalSum(b0), sb1 = HorizontalSum(b1);
      float sb2 = HorizontalSum(b2), sb3 = HorizontalSum(b3);
      for (; i < dim; ++i) {
        const float fa = qa[i];
        const float fb = qb[i];
        const float u0 = static_cast<float>(r0[i]);
        const float u1 = static_cast<float>(r1[i]);
        const float u2 = static_cast<float>(r2[i]);
        const float u3 = static_cast<float>(r3[i]);
        const float da0 = fa - u0;
        const float da1 = fa - u1;
        const float da2 = fa - u2;
        const float da3 = fa - u3;
        sa0 += da0 * da0;
        sa1 += da1 * da1;
        sa2 += da2 * da2;
        sa3 += da3 * da3;
        const float db0 = fb - u0;
        const float db1 = fb - u1;
        const float db2 = fb - u2;
        const float db3 = fb - u3;
        sb0 += db0 * db0;
        sb1 += db1 * db1;
        sb2 += db2 * db2;
        sb3 += db3 * db3;
      }
      float* oa = out + q * num_rows + r;
      float* ob = oa + num_rows;
      oa[0] = sa0;
      oa[1] = sa1;
      oa[2] = sa2;
      oa[3] = sa3;
      ob[0] = sb0;
      ob[1] = sb1;
      ob[2] = sb2;
      ob[3] = sb3;
    }
    if (q < num_queries) {
      const float* qa = queries + q * dim;
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
      size_t i = 0;
      for (; i + 8 <= dim; i += 8) {
        const __m256 va = _mm256_loadu_ps(qa + i);
        const __m256 d0 = _mm256_sub_ps(va, LoadU8x8(r0 + i));
        const __m256 d1 = _mm256_sub_ps(va, LoadU8x8(r1 + i));
        const __m256 d2 = _mm256_sub_ps(va, LoadU8x8(r2 + i));
        const __m256 d3 = _mm256_sub_ps(va, LoadU8x8(r3 + i));
        a0 = _mm256_fmadd_ps(d0, d0, a0);
        a1 = _mm256_fmadd_ps(d1, d1, a1);
        a2 = _mm256_fmadd_ps(d2, d2, a2);
        a3 = _mm256_fmadd_ps(d3, d3, a3);
      }
      float s0 = HorizontalSum(a0), s1 = HorizontalSum(a1);
      float s2 = HorizontalSum(a2), s3 = HorizontalSum(a3);
      for (; i < dim; ++i) {
        const float fa = qa[i];
        const float d0 = fa - static_cast<float>(r0[i]);
        const float d1 = fa - static_cast<float>(r1[i]);
        const float d2 = fa - static_cast<float>(r2[i]);
        const float d3 = fa - static_cast<float>(r3[i]);
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
      }
      float* oa = out + q * num_rows + r;
      oa[0] = s0;
      oa[1] = s1;
      oa[2] = s2;
      oa[3] = s3;
    }
  }
  for (; r < num_rows; ++r) {
    for (size_t q = 0; q < num_queries; ++q) {
      out[q * num_rows + r] =
          L2SqSq8Avx2(queries + q * dim, rows + r * dim, dim);
    }
  }
}

constexpr KernelDispatch kAvx2Kernels = {
    "avx2-fma",    DotAvx2,         L2SqAvx2,         DotMultiAvx2,
    L2SqMultiAvx2, DotMultiSq8Avx2, L2SqMultiSq8Avx2,
};

}  // namespace

namespace internal {

const KernelDispatch* Avx2Kernels() { return &kAvx2Kernels; }

}  // namespace internal

}  // namespace tsfm::search

#endif  // TSFM_HAVE_AVX2_KERNELS
