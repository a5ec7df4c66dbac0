#include "search/pipeline.h"

#include <string>
#include <thread>

#include "search/sharded_lake_index.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tsfm::search {

std::vector<std::vector<size_t>> RunSearch(const lakebench::SearchBenchmark& bench,
                                           const ColumnEmbedFn& embed, size_t k,
                                           const SearchRunOptions& options) {
  // Embed the whole corpus once. The embed callback may share model state,
  // so embedding stays serial; ranking below is what fans out.
  std::vector<std::vector<std::vector<float>>> all_columns(bench.tables.size());
  size_t dim = 0;
  for (size_t t = 0; t < bench.tables.size(); ++t) {
    all_columns[t] = embed(t);
    for (const auto& col : all_columns[t]) {
      if (dim == 0) dim = col.size();
      TSFM_CHECK_EQ(col.size(), dim);
    }
  }
  TSFM_CHECK_GT(dim, 0u);

  // A join query (column_index >= 0) is the one-column query of its
  // column; every query rides one batch.
  std::vector<std::vector<std::vector<float>>> queries;
  std::vector<size_t> excludes;
  for (const auto& query : bench.queries) {
    const auto& qcols = all_columns[query.table_index];
    if (query.column_index >= 0) {
      TSFM_CHECK_LT(static_cast<size_t>(query.column_index), qcols.size());
      queries.push_back({qcols[static_cast<size_t>(query.column_index)]});
    } else {
      queries.push_back(qcols);
    }
    excludes.push_back(query.table_index);
  }

  size_t threads = options.num_threads != 0
                       ? options.num_threads
                       : std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(threads);

  // Table handles are assigned in insertion order, so the global handle
  // of table t is t and the exclude ids carry over.
  ShardedLakeIndex lake(dim, options.shards, options.index);
  for (size_t t = 0; t < bench.tables.size(); ++t) {
    lake.AddTable(std::to_string(t), all_columns[t]);
  }
  return lake.RankUnionableBatch(queries, k, excludes, &pool);
}

SearchReport EvaluateEmbeddingSearch(const lakebench::SearchBenchmark& bench,
                                     const ColumnEmbedFn& embed, size_t k_max,
                                     const SearchRunOptions& options) {
  return EvaluateSearch(RunSearch(bench, embed, k_max, options), bench.gold, k_max);
}

SearchReport EvaluateRankedLists(const lakebench::SearchBenchmark& bench,
                                 const std::vector<std::vector<size_t>>& ranked,
                                 size_t k_max) {
  return EvaluateSearch(ranked, bench.gold, k_max);
}

}  // namespace tsfm::search
