// End-to-end search evaluation: index a corpus of column embeddings, run
// every benchmark query, and score against gold (paper Sec IV-C).
#ifndef TSFM_SEARCH_PIPELINE_H_
#define TSFM_SEARCH_PIPELINE_H_

#include <functional>
#include <vector>

#include "lakebench/search_benchmarks.h"
#include "search/metrics.h"
#include "search/vector_index.h"

namespace tsfm::search {

/// Produces the column embeddings of corpus table `i`.
/// Must return one vector per column, all of equal dimension.
using ColumnEmbedFn =
    std::function<std::vector<std::vector<float>>(size_t table_index)>;

/// \brief Knobs for a search evaluation run.
struct SearchRunOptions {
  IndexOptions index;      ///< ANN backend for the column index
  size_t num_threads = 0;  ///< query fan-out width; 0 = hardware concurrency
  /// Shard count of the ShardedLakeIndex the corpus is loaded into (1, the
  /// default, is a one-shard lake under the same coordinator).
  /// Flat-backend results are identical at every shard count.
  size_t shards = 1;
};

/// \brief Runs a full search evaluation for one embedding method.
///
/// Every query is ranked by the Fig 6 multi-column ranking; a join query
/// (column_index >= 0) is the one-column query of its column, so tables
/// rank by their nearest column. All queries ride one batch ranking call,
/// fanned out over a ThreadPool. Returns ranked lists, one per query.
std::vector<std::vector<size_t>> RunSearch(const lakebench::SearchBenchmark& bench,
                                           const ColumnEmbedFn& embed, size_t k,
                                           const SearchRunOptions& options = {});

/// Convenience: RunSearch + EvaluateSearch.
SearchReport EvaluateEmbeddingSearch(const lakebench::SearchBenchmark& bench,
                                     const ColumnEmbedFn& embed, size_t k_max,
                                     const SearchRunOptions& options = {});

/// Evaluates pre-computed ranked lists (for non-embedding baselines such as
/// Josie or LSH-Forest).
SearchReport EvaluateRankedLists(const lakebench::SearchBenchmark& bench,
                                 const std::vector<std::vector<size_t>>& ranked,
                                 size_t k_max);

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_PIPELINE_H_
