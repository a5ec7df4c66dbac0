#include "search/distance_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <utility>

#include "search/quantizer.h"
#include "util/simd.h"

#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace tsfm::search {

namespace {

// ------------------------------------------------------------------ scalar
// The reference set. Four independent accumulators: deterministic,
// autovectorizer-friendly, and closer to the SIMD lane sums than a single
// serial accumulator, which keeps the 1e-4 agreement contract comfortable.

float DotScalar(const float* a, const float* b, size_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

float L2SqScalar(const float* a, const float* b, size_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    s0 += d * d;
  }
  return (s0 + s1) + (s2 + s3);
}

// Asymmetric SQ8 references: float query, raw uint8 rows. Same
// four-accumulator shape as the float kernels so the SIMD agreement
// contract (1e-4 relative) carries over unchanged.

float DotSq8Scalar(const float* q, const uint8_t* row, size_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += q[i] * static_cast<float>(row[i]);
    s1 += q[i + 1] * static_cast<float>(row[i + 1]);
    s2 += q[i + 2] * static_cast<float>(row[i + 2]);
    s3 += q[i + 3] * static_cast<float>(row[i + 3]);
  }
  for (; i < n; ++i) s0 += q[i] * static_cast<float>(row[i]);
  return (s0 + s1) + (s2 + s3);
}

float L2SqSq8Scalar(const float* q, const uint8_t* row, size_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float d0 = q[i] - static_cast<float>(row[i]);
    const float d1 = q[i + 1] - static_cast<float>(row[i + 1]);
    const float d2 = q[i + 2] - static_cast<float>(row[i + 2]);
    const float d3 = q[i + 3] - static_cast<float>(row[i + 3]);
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; i < n; ++i) {
    const float d = q[i] - static_cast<float>(row[i]);
    s0 += d * d;
  }
  return (s0 + s1) + (s2 + s3);
}

// Multi-query reference kernels. The tile walks a block of rows for every
// query before moving on, so the row block stays hot in L1 across the
// whole query batch; within a (query, row) pair the arithmetic is the
// exact pairwise kernel, so every value is independent of the batch size
// (the contract ScanTopKMulti depends on) and equals DotScalar /
// L2SqScalar bit for bit.
constexpr size_t kMultiRowTile = 4;

void DotMultiScalar(const float* queries, size_t num_queries,
                    const float* rows, size_t num_rows, size_t dim,
                    float* out) {
  for (size_t base = 0; base < num_rows; base += kMultiRowTile) {
    const size_t end = std::min(num_rows, base + kMultiRowTile);
    for (size_t q = 0; q < num_queries; ++q) {
      const float* query = queries + q * dim;
      for (size_t r = base; r < end; ++r) {
        out[q * num_rows + r] = DotScalar(query, rows + r * dim, dim);
      }
    }
  }
}

void L2SqMultiScalar(const float* queries, size_t num_queries,
                     const float* rows, size_t num_rows, size_t dim,
                     float* out) {
  for (size_t base = 0; base < num_rows; base += kMultiRowTile) {
    const size_t end = std::min(num_rows, base + kMultiRowTile);
    for (size_t q = 0; q < num_queries; ++q) {
      const float* query = queries + q * dim;
      for (size_t r = base; r < end; ++r) {
        out[q * num_rows + r] = L2SqScalar(query, rows + r * dim, dim);
      }
    }
  }
}

void DotMultiSq8Scalar(const float* queries, size_t num_queries,
                       const uint8_t* rows, size_t num_rows, size_t dim,
                       float* out) {
  for (size_t base = 0; base < num_rows; base += kMultiRowTile) {
    const size_t end = std::min(num_rows, base + kMultiRowTile);
    for (size_t q = 0; q < num_queries; ++q) {
      const float* query = queries + q * dim;
      for (size_t r = base; r < end; ++r) {
        out[q * num_rows + r] = DotSq8Scalar(query, rows + r * dim, dim);
      }
    }
  }
}

void L2SqMultiSq8Scalar(const float* queries, size_t num_queries,
                        const uint8_t* rows, size_t num_rows, size_t dim,
                        float* out) {
  for (size_t base = 0; base < num_rows; base += kMultiRowTile) {
    const size_t end = std::min(num_rows, base + kMultiRowTile);
    for (size_t q = 0; q < num_queries; ++q) {
      const float* query = queries + q * dim;
      for (size_t r = base; r < end; ++r) {
        out[q * num_rows + r] = L2SqSq8Scalar(query, rows + r * dim, dim);
      }
    }
  }
}

constexpr KernelDispatch kScalarKernels = {
    "scalar",          DotScalar,       L2SqScalar,        DotMultiScalar,
    L2SqMultiScalar,   DotMultiSq8Scalar, L2SqMultiSq8Scalar,
};

// -------------------------------------------------------------------- NEON
// aarch64 always has Advanced SIMD, so the kernels live in this TU behind
// the arch guard — no separate flags or runtime probe needed.
#if defined(__aarch64__)

float DotNeon(const float* a, const float* b, size_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  if (i + 4 <= n) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    i += 4;
  }
  float s = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

float L2SqNeon(const float* a, const float* b, size_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const float32x4_t d0 = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    const float32x4_t d1 = vsubq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
    acc0 = vfmaq_f32(acc0, d0, d0);
    acc1 = vfmaq_f32(acc1, d1, d1);
  }
  if (i + 4 <= n) {
    const float32x4_t d = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc0 = vfmaq_f32(acc0, d, d);
    i += 4;
  }
  float s = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

// The float multi kernels run the pairwise kernel per (query, row)
// instead of tiling queries into the NEON registers, so each value is
// DotNeon / L2SqNeon of that pair whatever the batch size. The sq8 multi
// kernels reuse the scalar tile: the widening u8 -> f32 ladder costs most
// of what the float FMA saves at these dims, and the bandwidth win (4x
// smaller rows) is ISA-independent.
void DotMultiNeon(const float* queries, size_t num_queries, const float* rows,
                  size_t num_rows, size_t dim, float* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t r = 0; r < num_rows; ++r) {
      out[q * num_rows + r] = DotNeon(queries + q * dim, rows + r * dim, dim);
    }
  }
}

void L2SqMultiNeon(const float* queries, size_t num_queries,
                   const float* rows, size_t num_rows, size_t dim,
                   float* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t r = 0; r < num_rows; ++r) {
      out[q * num_rows + r] = L2SqNeon(queries + q * dim, rows + r * dim, dim);
    }
  }
}

constexpr KernelDispatch kNeonKernels = {
    "neon",        DotNeon,           L2SqNeon,           DotMultiNeon,
    L2SqMultiNeon, DotMultiSq8Scalar, L2SqMultiSq8Scalar,
};

#endif  // __aarch64__

// --------------------------------------------------------------- selection

const KernelDispatch& KernelsFor([[maybe_unused]] SimdLevel level) {
#if defined(TSFM_HAVE_AVX2_KERNELS)
  if (level == SimdLevel::kAvx2) return *internal::Avx2Kernels();
#endif
#if defined(__aarch64__)
  if (level == SimdLevel::kNeon) return kNeonKernels;
#endif
  return kScalarKernels;
}

}  // namespace

const KernelDispatch& Kernels() { return KernelsFor(ActiveSimdLevel()); }

const KernelDispatch& ScalarKernels() { return kScalarKernels; }

const KernelDispatch& BestKernels() { return KernelsFor(BestSimdLevel()); }

float Norm(const float* a, size_t n) {
  return std::sqrt(Kernels().dot(a, a, n));
}

namespace {

// Shared heap scaffolding of the scans: one bounded (distance, row)
// max-heap per query with the worst kept candidate on top, fed in
// ascending row order, ties resolved toward the lower row — so given
// bit-equal block values the kept rows and tie-breaks are bit-equal too.
using HeapEntry = std::pair<float, size_t>;
using TopKHeap = std::priority_queue<HeapEntry>;

inline void HeapPush(TopKHeap& heap, size_t cap, float dist, size_t row) {
  if (heap.size() < cap) {
    heap.emplace(dist, row);
  } else if (HeapEntry(dist, row) < heap.top()) {
    heap.pop();
    heap.emplace(dist, row);
  }
}

std::vector<ScanHit> DrainHeapSorted(TopKHeap& heap) {
  std::vector<ScanHit> out(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out[i] = {heap.top().first, heap.top().second};
    heap.pop();
  }
  return out;
}

}  // namespace

std::vector<std::vector<ScanHit>> ScanTopKMulti(
    const KernelDispatch& kernels, const float* queries, size_t num_queries,
    const float* rows, const float* row_norms, size_t num_rows, size_t dim,
    Metric metric, size_t k) {
  std::vector<std::vector<ScanHit>> out(num_queries);
  if (num_queries == 0 || k == 0 || num_rows == 0) return out;
  const bool cosine = metric == Metric::kCosine;
  std::vector<float> query_norms(cosine ? num_queries : 0);
  if (cosine) {
    for (size_t q = 0; q < num_queries; ++q) {
      const float* query = queries + q * dim;
      query_norms[q] = std::sqrt(kernels.dot(query, query, dim));
    }
  }

  // Distances are produced a 512-row block at a time so the row loop stays
  // inside the kernel TU. Each block is loaded from memory once for all
  // queries; the heaps then consume it query-major, in ascending row order
  // per query.
  std::vector<TopKHeap> heaps(num_queries);
  constexpr size_t kBlockRows = 512;
  std::vector<float> block(num_queries * std::min(num_rows, kBlockRows));
  for (size_t base = 0; base < num_rows; base += kBlockRows) {
    const size_t count = std::min(kBlockRows, num_rows - base);
    if (cosine) {
      kernels.dot_multi(queries, num_queries, rows + base * dim, count, dim,
                        block.data());
    } else {
      kernels.l2sq_multi(queries, num_queries, rows + base * dim, count, dim,
                         block.data());
    }
    for (size_t q = 0; q < num_queries; ++q) {
      const float* vals = block.data() + q * count;
      for (size_t i = 0; i < count; ++i) {
        const size_t r = base + i;
        // L2 takes the root here, before the heap: candidates must be
        // selected and tie-broken on the distances we report, or two
        // squared values that round to the same float sqrt would order by
        // row inconsistently with the (distance, row) contract.
        const float dist =
            cosine ? CosineDistanceFromDot(vals[i], row_norms[r],
                                           query_norms[q])
                   : std::sqrt(vals[i]);
        HeapPush(heaps[q], k, dist, r);
      }
    }
  }

  for (size_t q = 0; q < num_queries; ++q) out[q] = DrainHeapSorted(heaps[q]);
  return out;
}

std::vector<std::vector<ScanHit>> ScanTopKMulti(
    const float* queries, size_t num_queries, const float* rows,
    const float* row_norms, size_t num_rows, size_t dim, Metric metric,
    size_t k) {
  return ScanTopKMulti(Kernels(), queries, num_queries, rows, row_norms,
                       num_rows, dim, metric, k);
}

std::vector<std::vector<ScanHit>> ScanTopKMultiSq8(
    const KernelDispatch& kernels, const float* queries, size_t num_queries,
    const uint8_t* codes, const Sq8Codec& codec, const float* row_norms,
    size_t num_rows, Metric metric, size_t k) {
  std::vector<std::vector<ScanHit>> out(num_queries);
  if (num_queries == 0 || k == 0 || num_rows == 0) return out;
  const size_t dim = codec.dim();
  const bool cosine = metric == Metric::kCosine;
  const float* scale = codec.scale().data();
  const float* offset = codec.offset().data();

  // Per-query pre-transform, packed row-major so the candidate scan can
  // stream all prepared queries through one multi kernel call per block.
  // It folds the affine calibration out of the inner loop so the u8
  // kernels stay codec-agnostic:
  //   kCosine: dot(q, decode(u)) = sum q_i*offset_i + sum (q_i*scale_i)*u_i
  //            -> prep = q (.) scale, bias added back per row; exact in
  //            decoded space up to float rounding.
  //   kL2:     prep_i = (q_i - offset_i) / scale_i makes the kernel's
  //            sum (prep_i - u_i)^2 a scale-weighted proxy for the decoded
  //            L2 — monotone enough to pick candidates, never reported
  //            (the rescore below replaces it with the exact distance).
  std::vector<float> prep(num_queries * dim);
  std::vector<float> biases(cosine ? num_queries : 0, 0.0f);
  std::vector<float> query_norms(cosine ? num_queries : 0, 0.0f);
  for (size_t q = 0; q < num_queries; ++q) {
    const float* query = queries + q * dim;
    float* p = prep.data() + q * dim;
    if (cosine) {
      float bias = 0.0f;
      for (size_t i = 0; i < dim; ++i) {
        p[i] = query[i] * scale[i];
        bias += query[i] * offset[i];
      }
      biases[q] = bias;
      query_norms[q] = std::sqrt(kernels.dot(query, query, dim));
    } else {
      for (size_t i = 0; i < dim; ++i) {
        p[i] = (query[i] - offset[i]) / scale[i];
      }
    }
  }

  // Phase 1: one blocked pass over the u8 rows feeding a top-C candidate
  // heap per query. C over-selects relative to k so quantization noise at
  // the k boundary cannot evict a true top-k row before the rescore sees
  // it. k above num_rows / 4 keeps every row (and 4 * k could wrap).
  const size_t candidates =
      k > num_rows / 4 ? num_rows
                       : std::min(num_rows, std::max<size_t>(4 * k, 64));
  std::vector<TopKHeap> heaps(num_queries);
  constexpr size_t kBlockRows = 512;
  std::vector<float> block(num_queries * std::min(num_rows, kBlockRows));
  for (size_t base = 0; base < num_rows; base += kBlockRows) {
    const size_t count = std::min(kBlockRows, num_rows - base);
    if (cosine) {
      kernels.dot_multi_sq8(prep.data(), num_queries, codes + base * dim,
                            count, dim, block.data());
    } else {
      kernels.l2sq_multi_sq8(prep.data(), num_queries, codes + base * dim,
                             count, dim, block.data());
    }
    for (size_t q = 0; q < num_queries; ++q) {
      const float* vals = block.data() + q * count;
      for (size_t i = 0; i < count; ++i) {
        const size_t r = base + i;
        const float score =
            cosine ? CosineDistanceFromDot(biases[q] + vals[i], row_norms[r],
                                           query_norms[q])
                   : vals[i];
        HeapPush(heaps[q], candidates, score, r);
      }
    }
  }

  // Phase 2: per-query exact rescore. Each query decodes its own
  // candidates and ranks them with the float pairwise kernels, so the
  // distances (and the (distance, row) order) match a float scan over the
  // decoded rows. The candidate sets differ per query, so there is nothing
  // to share across the batch here.
  std::vector<float> decoded(dim);
  for (size_t q = 0; q < num_queries; ++q) {
    const float* query = queries + q * dim;
    TopKHeap& heap = heaps[q];
    std::vector<ScanHit> rescored;
    rescored.reserve(heap.size());
    while (!heap.empty()) {
      const size_t r = heap.top().second;
      heap.pop();
      codec.DecodeRow(codes + r * dim, decoded.data());
      const float dist =
          cosine ? CosineDistanceFromDot(
                       kernels.dot(query, decoded.data(), dim), row_norms[r],
                       query_norms[q])
                 : std::sqrt(kernels.l2sq(query, decoded.data(), dim));
      rescored.push_back({dist, r});
    }
    std::sort(rescored.begin(), rescored.end(),
              [](const ScanHit& a, const ScanHit& b) {
                return a.distance != b.distance ? a.distance < b.distance
                                                : a.row < b.row;
              });
    if (rescored.size() > k) rescored.resize(k);
    out[q] = std::move(rescored);
  }
  return out;
}

std::vector<std::vector<ScanHit>> ScanTopKMultiSq8(
    const float* queries, size_t num_queries, const uint8_t* codes,
    const Sq8Codec& codec, const float* row_norms, size_t num_rows,
    Metric metric, size_t k) {
  return ScanTopKMultiSq8(Kernels(), queries, num_queries, codes, codec,
                          row_norms, num_rows, metric, k);
}

}  // namespace tsfm::search
