// The paper's Fig 6 column-based table ranking:
//   KNNSEARCH(c, k)          -> (k*3) nearest columns by distance
//   COLUMNNEARTABLES(c, k)   -> tables of those columns with min distance
//   NEARTABLES(t)            -> union over t's columns
//   RANK1 = number of matched query columns (descending)
//   RANK2 = sum of column distances (ascending tie-break)
//
// ColumnEmbeddingIndex holds one segment's column corpus behind a
// pluggable VectorIndex (exact flat scan or HNSW), the only in-memory copy
// of its vectors; TableRanker holds the merge and RANK1/RANK2 halves the
// lake coordinator (sharded_lake_index.h) runs after KNNSEARCH.
#ifndef TSFM_SEARCH_TABLE_RANKER_H_
#define TSFM_SEARCH_TABLE_RANKER_H_

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "search/vector_index.h"
#include "util/status.h"

namespace tsfm {
class ThreadPool;
}  // namespace tsfm

namespace tsfm::search {

class Sq8Codec;

/// \brief A corpus of column embeddings grouped by table.
class ColumnEmbeddingIndex {
 public:
  explicit ColumnEmbeddingIndex(size_t dim, const IndexOptions& options = {});

  /// Adds every column embedding of table `table_id`. A table's columns
  /// take the next consecutive rows, in column order.
  void AddTable(size_t table_id, const std::vector<std::vector<float>>& columns);

  /// One nearest-column entry of a column query.
  struct ColumnHit {
    size_t table_id;
    size_t column_index;
    float distance;
  };

  /// Nearest (table_id, column, distance) entries for each column query,
  /// nearest first, from one VectorIndex::SearchBatch; fans out over
  /// `pool` when given.
  std::vector<std::vector<ColumnHit>> SearchColumnsBatch(
      const std::vector<std::vector<float>>& queries, size_t k,
      ThreadPool* pool = nullptr) const;

  size_t num_columns() const { return index_->size(); }
  size_t dim() const { return index_->dim(); }
  const IndexOptions& options() const { return options_; }
  /// Row `i` as the backend stores it (VectorIndex::Row), dim() floats.
  const float* Row(size_t i) const { return index_->Row(i); }

  /// Writes an HNSW corpus's layer graph (HnswIndex::SaveGraph).
  /// Check-fails on a flat corpus.
  Status SaveGraph(std::ostream& out) const;

  /// \brief Restores an empty HNSW corpus from its stored rows and a graph
  /// written by SaveGraph (HnswIndex::LoadGraph), without re-inserting.
  ///
  /// Table t owns the next `table_columns[t]` rows of `rows`, as AddTable
  /// laid them out. Check-fails unless the corpus is an empty HNSW one and
  /// the counts sum to the row count.
  Status LoadGraph(std::vector<float> rows,
                   std::span<const size_t> table_columns, std::istream& in);

  /// \brief Installs a pre-trained SQ8 codec on an empty kSq8 flat index.
  ///
  /// How LakeIndex::Load re-arms a restored corpus with the persisted
  /// calibration before replaying AddTable. Check-fails unless the corpus
  /// is an empty kFlat/kSq8 index (see KnnIndex::SeedSq8Codec).
  void SeedSq8Codec(Sq8Codec codec);

  /// The trained SQ8 codec (calibrating first if needed), or nullptr when
  /// the corpus does not use kSq8 storage.
  const Sq8Codec* sq8_codec() const;

 private:
  IndexOptions options_;
  std::unique_ptr<VectorIndex> index_;
  std::vector<std::pair<size_t, size_t>> column_of_;  // payload -> (table, col)
};

/// \brief Fig 6 ranking of corpus tables from column hits.
///
/// The two halves that follow the column search: a k-way merge of
/// pre-sorted per-shard (or per-segment) hit lists, and the RANK1/RANK2
/// aggregation over per-query-column hit lists. LakeCoordinator::Rank runs
/// the search itself and then both halves, so every deployment ranks
/// through this code.
class TableRanker {
 public:
  /// \brief K-way heap merge of sorted candidate lists into the global top-k.
  ///
  /// Each input list must be sorted ascending by (distance, table_id,
  /// column_index) — the order SearchColumnsBatch produces. The result equals
  /// sorting the concatenation of all lists by that key and truncating to
  /// `k`, and is invariant to the order of the input lists as long as no
  /// (table_id, column_index) pair appears twice (shards partition columns,
  /// so per-shard lists never collide).
  static std::vector<ColumnEmbeddingIndex::ColumnHit> MergeColumnHits(
      const std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>& lists,
      size_t k);

  /// \brief Fig 6 RANK1/RANK2 aggregation over per-query-column hit lists.
  ///
  /// `per_column_hits[c]` holds the candidate columns retrieved for query
  /// column c (COLUMNNEARTABLES input). Tables are ranked by number of
  /// matched query columns (descending), then by summed min distance
  /// (ascending), then by table id. `exclude` is dropped. A join is the
  /// one-column case: every table matches one column, so tables rank by
  /// their closest column, ties broken by table id.
  static std::vector<size_t> RankFromColumnHits(
      const std::vector<std::vector<ColumnEmbeddingIndex::ColumnHit>>&
          per_column_hits,
      size_t exclude);
};

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_TABLE_RANKER_H_
