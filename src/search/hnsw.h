// Hierarchical Navigable Small World graph (Malkov & Yashunin 2020) for
// approximate nearest-neighbour search.
//
// The paper's DeepJoin baseline indexes column embeddings with HNSW; this
// implementation provides the same substrate so the repo's search stack can
// scale past brute force. Greedy descent through sparse upper layers, then
// beam search (ef candidates) at layer 0. Construction/search knobs live in
// HnswOptions (see vector_index.h). A lake file stores the rows (Row) and
// then the graph (SaveGraph), so loading it restores the graph instead of
// re-inserting every row.
#ifndef TSFM_SEARCH_HNSW_H_
#define TSFM_SEARCH_HNSW_H_

#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "search/vector_index.h"
#include "util/random.h"
#include "util/status.h"

namespace tsfm::search {

/// \brief Approximate kNN over cosine or L2 distance (the kHnsw backend).
///
/// Under cosine, vectors are L2-normalized on insertion, so inner product
/// equals cosine similarity and distance = 1 - cos. Under L2 the vectors
/// are stored raw and distance is the Euclidean norm, matching KnnIndex so
/// IndexOptions.metric behaves the same for both backends.
///
/// Zero-norm caveat: normalization on insert erases norms, so a zero-norm
/// vector (or query) degrades to the zero vector and scores distance 1.0
/// against everything — unlike the flat backend, whose kernel seam reports
/// kMaxCosineDistance for it. The graph needs finite distances during
/// construction, and the exact backend is the reference for such edge
/// cases anyway (pinned in tests/hnsw_test.cc).
class HnswIndex : public VectorIndex {
 public:
  HnswIndex(size_t dim, HnswOptions options = {}, Metric metric = Metric::kCosine);

  /// Inserts a vector with an opaque payload id.
  void Add(size_t payload, const std::vector<float>& vec) override;

  /// Top-k (payload, distance) pairs, nearest first. k == 0 or a query of
  /// the wrong dimension returns an empty list.
  std::vector<std::pair<size_t, float>> Search(const std::vector<float>& query,
                                               size_t k) const override;

  size_t size() const override { return payloads_.size(); }
  size_t dim() const override { return dim_; }
  IndexBackend backend() const override { return IndexBackend::kHnsw; }
  Metric metric() const override { return metric_; }
  const float* Row(size_t i) const override { return VectorOf(i); }

  const HnswOptions& options() const { return options_; }

  /// Writes the layer graph: the max level and entry point, then each
  /// node's level and its neighbour list per layer. Rows and payloads are
  /// not included; the caller persists the rows through Row().
  Status SaveGraph(std::ostream& out) const;

  /// \brief Restores an empty index from `rows` (Row() of each node in
  /// order, dim() floats each) and a graph written by SaveGraph.
  ///
  /// Node r gets payload r. No row is re-inserted, so the index answers
  /// exactly like the one that wrote the graph. A graph that is truncated,
  /// has a level above 64, a neighbour id out of range, an entry point
  /// that does not carry the max level, or a neighbour listed below its
  /// own layer is an error Status, and the index stays empty. Check-fails
  /// on a non-empty index.
  Status LoadGraph(std::vector<float> rows, std::istream& in);

 private:
  struct Node {
    int level = 0;
    // neighbours[l] = ids of neighbours at layer l (0..level).
    std::vector<std::vector<uint32_t>> neighbours;
  };

  float Distance(const float* a, const float* b) const;
  const float* VectorOf(size_t node) const { return data_.data() + node * dim_; }

  // Beam search at one layer starting from `entry`; returns up to `ef`
  // (distance, node) pairs, nearest first.
  std::vector<std::pair<float, uint32_t>> SearchLayer(const float* query,
                                                      uint32_t entry, size_t ef,
                                                      int layer) const;

  // Keeps the m nearest of `candidates` as the node's neighbour list.
  void SelectNeighbours(std::vector<std::pair<float, uint32_t>>* candidates,
                        size_t m) const;

  size_t dim_;
  HnswOptions options_;
  Metric metric_;
  Rng level_rng_;
  std::vector<float> data_;       // row-major; unit-norm under cosine
  std::vector<size_t> payloads_;
  std::vector<Node> nodes_;
  int max_level_ = -1;
  uint32_t entry_point_ = 0;
};

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_HNSW_H_
