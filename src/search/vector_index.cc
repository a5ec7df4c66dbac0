#include "search/vector_index.h"

#include "search/hnsw.h"
#include "search/knn_index.h"
#include "util/thread_pool.h"

namespace tsfm::search {

std::vector<std::vector<std::pair<size_t, float>>> VectorIndex::SearchBatch(
    const std::vector<std::vector<float>>& queries, size_t k,
    ThreadPool* pool) const {
  std::vector<std::vector<std::pair<size_t, float>>> results(queries.size());
  if (pool != nullptr && queries.size() > 1) {
    ParallelFor(pool, 0, queries.size(),
                [&](size_t q) { results[q] = Search(queries[q], k); });
  } else {
    for (size_t q = 0; q < queries.size(); ++q) {
      results[q] = Search(queries[q], k);
    }
  }
  return results;
}

std::unique_ptr<VectorIndex> MakeVectorIndex(size_t dim,
                                             const IndexOptions& options) {
  if (options.backend == IndexBackend::kHnsw) {
    return std::make_unique<HnswIndex>(dim, options.hnsw, options.metric);
  }
  return std::make_unique<KnnIndex>(dim, options.metric, options.storage);
}

}  // namespace tsfm::search
