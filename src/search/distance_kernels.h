// SIMD distance kernels — the lowest layer of the search stack.
//
// Every query in the repo bottoms out in inner-product / L2 scans
// (KnnIndex's flat scan) or HNSW neighbour expansion (HnswIndex::Distance).
// This module owns those loops: a kernel set (pairwise dot and squared L2,
// plus many-queries-many-rows variants over float and SQ8 rows) per
// instruction-set level — AVX2+FMA, NEON on aarch64, portable scalar —
// exposed as plain function pointers so the indexes above never carry
// their own arithmetic. Which set runs is the process's SimdLevel
// (util/simd.h), the selector nn::MatMul shares.
//
// Semantics the seam guarantees (so callers cannot diverge):
//   - Cosine normalization lives HERE. CosineDistanceFromDot folds the
//     norm division and the zero-norm guard into the kernel layer; no
//     caller divides by norms itself.
//   - A zero-norm vector has no direction, so wherever norms are known
//     (CosineDistanceFromDot, and therefore the flat scan) its cosine
//     distance is kMaxCosineDistance (+inf): it ranks strictly after every
//     vector with a direction instead of masquerading as "orthogonal".
//     HnswIndex is the one exception: it normalizes on insert, so a
//     zero-norm input degrades to the zero vector at distance 1.0 — see
//     hnsw.h.
//   - Accumulation is in float on every path (the SIMD lanes are float;
//     the scalar reference matches). Kernel sets agree within 1e-4
//     relative on random vectors (property-tested in
//     tests/distance_kernels_test.cc) but are NOT bit-identical — never
//     compare distances across kernel sets with ==. The same contract
//     covers the multi-query kernels against the pairwise ones: row
//     blocking changes the accumulation order.
//
// Setting LAKS_FORCE_SCALAR=1 in the environment forces the scalar set
// (util/simd.h), so SIMD/scalar parity is testable on any machine.
#ifndef TSFM_SEARCH_DISTANCE_KERNELS_H_
#define TSFM_SEARCH_DISTANCE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace tsfm::search {

/// Distance metrics understood by every index backend.
enum class Metric { kCosine, kL2 };

/// Cosine distance reported for a zero-norm vector (no direction — it must
/// rank after everything that has one).
inline constexpr float kMaxCosineDistance =
    std::numeric_limits<float>::infinity();

/// Norm-product guard below which cosine is treated as undefined.
inline constexpr float kNormProductEps = 1e-12f;

/// Pairwise kernel: one value from two length-`n` vectors.
using PairKernelFn = float (*)(const float* a, const float* b, size_t n);

/// \brief Multi-query batch ("mini-GEMM") kernel: `num_queries` row-major
/// queries of length `dim` against `num_rows` row-major rows, writing
/// out[q * num_rows + r].
///
/// This is the flat scan's hot loop: the register tile walks several
/// queries and rows abreast so each row load from memory is shared by the
/// whole query tile instead of being re-fetched per query. Contract: each
/// (query, row) value does not depend on `num_queries` — the tile may
/// reorder which pair is computed when, but never the accumulation order
/// within a pair. ScanTopKMulti relies on this to return, per query,
/// exactly what a one-query scan of that query returns.
using MultiBatchKernelFn = void (*)(const float* queries, size_t num_queries,
                                    const float* rows, size_t num_rows,
                                    size_t dim, float* out);

/// Asymmetric multi-query kernel: float queries against row-major uint8
/// SQ8 code rows, same layout and batch-size contract as
/// MultiBatchKernelFn. The kernels are codec-agnostic — they treat each
/// byte as the number it is (dot: sum q_i * u_i; l2sq: sum (q_i - u_i)^2)
/// and ScanTopKMultiSq8 pre-transforms the queries per metric so the
/// affine calibration never enters the inner loop.
using MultiBatchKernelSq8Fn = void (*)(const float* queries,
                                       size_t num_queries,
                                       const uint8_t* rows, size_t num_rows,
                                       size_t dim, float* out);

/// \brief One ISA's kernel set. Instances are immutable process-lifetime
/// statics; Kernels() returns the one for ActiveSimdLevel().
struct KernelDispatch {
  const char* name;        ///< "scalar", "avx2-fma", or "neon"
  PairKernelFn dot;        ///< inner product
  PairKernelFn l2sq;       ///< squared Euclidean distance
  MultiBatchKernelFn dot_multi;    ///< dot of each query vs each row
  MultiBatchKernelFn l2sq_multi;   ///< squared L2 of each query vs each row
  MultiBatchKernelSq8Fn dot_multi_sq8;   ///< multi-query dot vs u8 rows
  MultiBatchKernelSq8Fn l2sq_multi_sq8;  ///< multi-query sq L2 vs u8 rows
};

/// The kernel set of the process's ActiveSimdLevel() (util/simd.h).
const KernelDispatch& Kernels();

/// The portable scalar reference set (always available).
const KernelDispatch& ScalarKernels();

/// The set of BestSimdLevel(), ignoring the LAKS_FORCE_SCALAR override.
/// Lets parity tests and benches compare scalar vs SIMD in one process
/// even when the process-wide selection was forced scalar.
const KernelDispatch& BestKernels();

namespace internal {
/// The AVX2+FMA set. Defined in distance_kernels_avx2.cc, which CMake
/// compiles (with -mavx2 -mfma) only on x86-64; referenced only under
/// TSFM_HAVE_AVX2_KERNELS and behind a runtime CPU check.
const KernelDispatch* Avx2Kernels();
}  // namespace internal

/// Inner product via the selected kernels.
inline float Dot(const float* a, const float* b, size_t n) {
  return Kernels().dot(a, b, n);
}

/// Squared Euclidean distance via the selected kernels.
inline float L2Sq(const float* a, const float* b, size_t n) {
  return Kernels().l2sq(a, b, n);
}

/// \brief Cosine distance from a precomputed dot product and norms.
///
/// The one place cosine normalization happens: 1 - dot / (|a||b|), with
/// zero-norm inputs mapped to kMaxCosineDistance. Callers with cached
/// norms (the flat index) use this instead of dividing themselves.
inline float CosineDistanceFromDot(float dot, float norm_a, float norm_b) {
  const float denom = norm_a * norm_b;
  return denom > kNormProductEps ? 1.0f - dot / denom : kMaxCosineDistance;
}

/// L2 norm of `a` via the selected kernels.
float Norm(const float* a, size_t n);

/// One row of a scan result.
struct ScanHit {
  float distance;
  size_t row;
};

class Sq8Codec;

/// \brief Top-k flat scan: one streaming pass over the rows for a batch of
/// queries ("mini-GEMM" scan). The flat backend's only scan.
///
/// `queries` holds `num_queries` row-major queries of length `dim`. The
/// rows stream through the dot_multi / l2sq_multi kernels in 512-row
/// blocks while one bounded (distance, row) max-heap per query keeps that
/// query's best rows, so each block is loaded from memory once for the
/// whole batch. Returns, per query, up to `k` hits sorted ascending by
/// (distance, row). Under kCosine, `row_norms` must hold the rows' L2
/// norms (query norms are computed internally; zero norms yield
/// kMaxCosineDistance). Under kL2, `row_norms` is ignored and distances
/// are Euclidean (square-rooted). Result q does not depend on
/// `num_queries` (same distances, rows and tie-breaks as a one-query scan
/// of query q under the same kernel set), because the multi kernels
/// preserve each (query, row) pair's accumulation order.
std::vector<std::vector<ScanHit>> ScanTopKMulti(
    const float* queries, size_t num_queries, const float* rows,
    const float* row_norms, size_t num_rows, size_t dim, Metric metric,
    size_t k);

/// ScanTopKMulti pinned to an explicit kernel set (parity tests, benches).
std::vector<std::vector<ScanHit>> ScanTopKMulti(
    const KernelDispatch& kernels, const float* queries, size_t num_queries,
    const float* rows, const float* row_norms, size_t num_rows, size_t dim,
    Metric metric, size_t k);

/// \brief Quantized flat scan: SQ8 code rows in, exact-in-decoded-space
/// top-k out, for a batch of queries.
///
/// Two phases. (1) Candidate scan: each query is pre-transformed per
/// metric (kCosine folds the codec's scale into the query and its offset
/// into a scalar bias, so the u8 dot is the decoded dot exactly; kL2 scans
/// a scale-weighted proxy in quantized units) and the u8 rows stream once
/// for the whole batch through dot_multi_sq8 / l2sq_multi_sq8 into one
/// top-C heap per query, C = max(4k, 64). (2) Exact rescore: each query's
/// surviving candidate rows are decoded to float and re-ranked with the
/// pairwise float kernels, so the returned hits carry the same distances
/// a float scan over the decoded rows would — the L2 proxy's scale
/// weighting never reaches the caller. Under kCosine, `row_norms` must
/// hold the *decoded* rows' L2 norms; under kL2 it is ignored. Per query,
/// up to k hits sorted ascending by (distance, row); result q does not
/// depend on `num_queries`.
std::vector<std::vector<ScanHit>> ScanTopKMultiSq8(
    const float* queries, size_t num_queries, const uint8_t* codes,
    const Sq8Codec& codec, const float* row_norms, size_t num_rows,
    Metric metric, size_t k);

/// ScanTopKMultiSq8 pinned to an explicit kernel set.
std::vector<std::vector<ScanHit>> ScanTopKMultiSq8(
    const KernelDispatch& kernels, const float* queries, size_t num_queries,
    const uint8_t* codes, const Sq8Codec& codec, const float* row_norms,
    size_t num_rows, Metric metric, size_t k);

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_DISTANCE_KERNELS_H_
