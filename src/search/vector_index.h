// Pluggable approximate/exact nearest-neighbour layer.
//
// The paper's deployment (Sec V) answers every online query through one
// column-embedding index; VectorIndex is the seam that lets that index be
// either exact brute force (KnnIndex) or an HNSW graph (HnswIndex, the
// substrate DeepJoin uses at scale) without the ranking stack caring which.
// Backends are chosen with IndexOptions and constructed via MakeVectorIndex.
// An index persists only inside a lake file (search/lake_index.h), which
// writes the rows Row() hands back, plus the graph for HNSW.
#ifndef TSFM_SEARCH_VECTOR_INDEX_H_
#define TSFM_SEARCH_VECTOR_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "search/distance_kernels.h"  // Metric + the kernel seam below it

namespace tsfm {
class ThreadPool;
}  // namespace tsfm

namespace tsfm::search {

/// Which ANN backend an index uses.
enum class IndexBackend {
  kFlat,  ///< exact brute-force scan (KnnIndex)
  kHnsw,  ///< approximate HNSW graph (HnswIndex)
};

/// HNSW construction/search knobs (Malkov & Yashunin 2020).
struct HnswOptions {
  size_t m = 12;                ///< max neighbours per node per layer
  size_t ef_construction = 64;  ///< beam width during insertion
  size_t ef_search = 48;        ///< beam width during queries
  uint64_t seed = 17;           ///< level assignment RNG
};

/// \brief Row storage of the flat backend.
///
/// kSq8 keeps each row as per-dimension scalar-quantized bytes (4x smaller,
/// calibrated from the indexed data; see quantizer.h) and answers Search
/// through the asymmetric int8 scan with exact rescore, so ranked results
/// track the float scan within the tested recall bound. The HNSW backend
/// stores float rows regardless — graph construction re-reads stored
/// vectors at full precision — and treats kSq8 as kFloat32.
enum class Storage {
  kFloat32,  ///< rows stored as float, exact scan
  kSq8,      ///< rows stored as SQ8 bytes, quantized scan + exact rescore
};

/// \brief Backend selection for MakeVectorIndex and everything above it.
///
/// `metric` applies to both backends (HNSW normalizes on insert under
/// cosine, stores raw vectors under L2). `hnsw` is ignored by the flat
/// backend; `storage` by the HNSW backend.
struct IndexOptions {
  IndexBackend backend = IndexBackend::kFlat;
  Metric metric = Metric::kCosine;
  Storage storage = Storage::kFloat32;
  HnswOptions hnsw;
};

/// \brief Abstract nearest-neighbour index over dense vectors with payloads.
///
/// Implementations must keep Search/SearchBatch const-thread-safe: SearchBatch
/// fans queries out over a ThreadPool, so concurrent Search calls on one
/// index must not race. Add is not thread-safe and must not overlap searches.
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// Adds a vector with an opaque payload id. Vector size must equal dim().
  virtual void Add(size_t payload, const std::vector<float>& vec) = 0;

  /// \brief Top-k (payload, distance) pairs, nearest first.
  ///
  /// Degenerate inputs are answered, not UB: k == 0 or a query whose size
  /// differs from dim() returns an empty list; k > size() returns size()
  /// results.
  virtual std::vector<std::pair<size_t, float>> Search(
      const std::vector<float>& query, size_t k) const = 0;

  /// \brief Searches many queries, optionally in parallel.
  ///
  /// Returns one Search result per query, in query order. With a non-null
  /// `pool` the queries are fanned out with ParallelFor; results are
  /// identical to the serial loop.
  virtual std::vector<std::vector<std::pair<size_t, float>>> SearchBatch(
      const std::vector<std::vector<float>>& queries, size_t k,
      ThreadPool* pool = nullptr) const;

  virtual size_t size() const = 0;
  virtual size_t dim() const = 0;
  virtual IndexBackend backend() const = 0;
  virtual Metric metric() const = 0;

  /// The i-th added vector (i < size()) as the backend stores it: the
  /// float row as added for the flat backend (under kSq8 too), the
  /// unit-normalized row for HNSW under cosine. dim() floats.
  virtual const float* Row(size_t i) const = 0;
};

/// Constructs an empty index of the requested backend.
std::unique_ptr<VectorIndex> MakeVectorIndex(size_t dim,
                                             const IndexOptions& options = {});

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_VECTOR_INDEX_H_
