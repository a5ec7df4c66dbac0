// Persistent data-lake index — the paper's recommended deployment (Sec V):
// embed and index the lake offline; at query time embed only the query
// table and search in embedding space.
//
// The ANN backend (exact flat scan or HNSW) is chosen at construction and
// recorded in the on-disk format, so the online half reopens the index with
// the same behaviour the offline half built it with. The segment indexes
// hold the only in-memory copy of the vectors: Save and compaction read
// each table's rows back from its segment, and an HNSW file carries its
// graph, so Load restores the graph instead of rebuilding it.
//
// Mutability (ROADMAP "Mutable lakes"): a lake is built in two phases.
// Before Seal(), AddTable appends straight into the base segment — the
// offline bulk build, byte-identical to what this class always did. After
// Seal() (Load seals automatically: a loaded lake is a serving artifact),
// AddTable appends to a small float32 *delta segment* scanned exactly, and
// RemoveTable only marks a *tombstone* — queries filter tombstoned hits
// and merge base + delta candidates, so mutations are visible immediately
// without touching the base storage (whose SQ8 calibration or HNSW graph
// would otherwise degrade under incremental writes). A compaction rebuilds
// the survivors into a fresh base; the churn-parity contract is that a
// compacted lake ranks bit-identically (flat backends) to the same
// surviving tables added from scratch in their original order.
//
// Concurrency: queries hold a shared lock for their full duration (they
// pin one epoch of the segment state) and mutations take a brief
// exclusive one. As a Shard, a compaction is split in two: the rebuild
// (PrepareCompaction) runs under the shared lock while queries continue,
// and CommitCompaction swaps the new segments in under the exclusive lock.
// The lake coordinator (search/sharded_lake_index.h) excludes every other
// mutation between the two.
#ifndef TSFM_SEARCH_LAKE_INDEX_H_
#define TSFM_SEARCH_LAKE_INDEX_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/embedder.h"
#include "search/shard.h"
#include "search/table_ranker.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tsfm {
class ThreadPool;
}  // namespace tsfm

namespace tsfm::search {

/// \brief An offline index of column embeddings for a corpus of tables:
/// one in-process Shard.
///
/// Build once with AddTable, then serve it through a lake coordinator
/// (ShardedLakeIndex, which ranks). The index serializes to a compact
/// binary file so the offline and online halves can run in different
/// processes. After Seal() the lake also accepts live AddTable/RemoveTable
/// churn concurrently with queries (see the file comment for the
/// delta/tombstone/compaction lifecycle).
class LakeIndex final : public Shard {
 public:
  explicit LakeIndex(size_t dim, const IndexOptions& options = {});

  /// Moves must not overlap any other operation on either operand (the
  /// same contract as KnnIndex: a moved index re-arms a fresh lock).
  LakeIndex(LakeIndex&& other) noexcept;
  LakeIndex& operator=(LakeIndex&& other) noexcept;
  LakeIndex(const LakeIndex&) = delete;
  LakeIndex& operator=(const LakeIndex&) = delete;

  /// Registers a table's column embeddings under a stable string id.
  /// Returns the table's dense index handle. Before Seal() the table joins
  /// the base segment; after, the delta segment. Safe to call concurrently
  /// with queries. Check-fails on a column CheckVectors rejects (wrong dim,
  /// NaN or infinite component), since Save would write it to a file Load
  /// refuses.
  size_t AddTable(const std::string& table_id,
                  const std::vector<std::vector<float>>& column_embeddings)
      LAKS_EXCLUDES(mu_);

  /// \brief Tombstones the most recently added live table named `table_id`.
  ///
  /// The handle stays allocated (handles are never reused between
  /// compactions) but the table vanishes from every query immediately.
  /// kNotFound when no live table has that id.
  Status RemoveTable(const std::string& table_id) override LAKS_EXCLUDES(mu_);

  /// \brief Ends the bulk-build phase: later AddTable calls go to the
  /// delta segment. Idempotent; Load() and compactions seal automatically.
  void Seal() LAKS_EXCLUDES(mu_);

  /// \brief Top-`m` live column hits per query, merged across the base
  /// and delta segments with tombstoned columns filtered out.
  ///
  /// On an unchurned lake this is exactly the base index's search; on a
  /// churned one the base is over-fetched by the tombstoned-column count
  /// so filtering can never starve the result, and the delta's exact
  /// float hits are k-way merged in by (distance, table, column). Fans
  /// over `pool` when given; never fails.
  Result<std::vector<ColumnHits>> SearchColumnsBatch(
      const std::vector<std::vector<float>>& queries, size_t m,
      ThreadPool* pool) const override LAKS_EXCLUDES(mu_);

  Result<size_t> Add(const std::string& table_id,
                     const std::vector<std::vector<float>>& columns) override
      LAKS_EXCLUDES(mu_) {
    return AddTable(table_id, columns);
  }

  /// \brief Rebuilds the surviving tables into a fresh, sealed image.
  ///
  /// Flat backends (float32 and sq8) and HNSW alike rebuild the base from
  /// the survivors in insertion order — for sq8 that retrains the codec
  /// over exactly the rows a from-scratch build would see, which is what
  /// makes post-compaction rankings bit-identical to a rebuild. Queries
  /// keep reading the old segments until CommitCompaction.
  Result<std::vector<size_t>> PrepareCompaction() override LAKS_EXCLUDES(mu_);
  /// Swaps the prepared image in (or just seals an unchurned lake).
  Status CommitCompaction() override LAKS_EXCLUDES(mu_);

  Result<std::vector<std::string>> TableIds() const override
      LAKS_EXCLUDES(mu_);
  ShardCounts Counts() const override LAKS_EXCLUDES(mu_);

  /// Persists the index as "LAK2" version 5, the only version written:
  /// header (backend, metric, storage, HNSW knobs), the SQ8 codec when
  /// quantized, the churn section (base table count and tombstones, empty
  /// for an unchurned lake), then table ids and per-table embeddings as
  /// the segments store them (unit-norm base rows for HNSW under cosine),
  /// and last, for an HNSW base only, its layer graph.
  Status Save(const std::string& path) const LAKS_EXCLUDES(mu_);

  /// Loads an index written by Save, or by an older build (LAK2 v2-v4, or
  /// the headerless "LAKE" format, which defaults to the flat backend),
  /// and seals it. A v5 HNSW base is restored from its rows and stored
  /// graph; older files replay AddTable, which rebuilds an HNSW graph. A
  /// count in the file that the remaining bytes cannot hold is a Status,
  /// never an allocation of that size; a table record holding a
  /// non-finite component, or a malformed graph, is a ParseError naming
  /// the file.
  static Result<LakeIndex> Load(const std::string& path);

  /// Handle-space size: live + tombstoned tables (handles stay dense and
  /// allocated until a compaction re-densifies them).
  size_t num_tables() const { return Counts().tables; }
  /// True when the lake carries pending deltas or tombstones.
  bool churned() const {
    const ShardCounts counts = Counts();
    return counts.pending_delta_tables + counts.pending_tombstones > 0;
  }
  /// Tables a query can still return.
  size_t num_live_tables() const { return Counts().live_tables; }
  /// Tables waiting in the delta segment for the next compaction.
  size_t pending_delta_tables() const { return Counts().pending_delta_tables; }
  /// Tombstoned-but-not-yet-compacted tables.
  size_t pending_tombstones() const { return Counts().pending_tombstones; }
  size_t dim() const { return dim_; }
  /// By value: the backing index can be swapped by a concurrent
  /// compaction, so a reference would dangle the moment the lock dropped.
  IndexOptions options() const LAKS_EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return index_.options();
  }
  bool is_live(size_t handle) const LAKS_EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return dead_[handle] == 0;
  }

 private:
  bool ChurnedLocked() const LAKS_REQUIRES_SHARED(mu_) {
    return dead_tables_ > 0 || table_ids_.size() > base_tables_;
  }
  /// Appends the bookkeeping of a table with `num_columns` columns (its
  /// rows are the caller's to add) and returns its handle.
  size_t RegisterLocked(const std::string& table_id, size_t num_columns)
      LAKS_REQUIRES(mu_);
  /// The segment holding `handle`'s rows.
  const ColumnEmbeddingIndex& SegmentLocked(size_t handle) const
      LAKS_REQUIRES_SHARED(mu_) {
    return handle < base_tables_ ? index_ : *delta_;
  }
  /// `handle`'s columns, read back from its segment starting at
  /// `first_row`. A table's columns are a contiguous run of its segment's
  /// rows; base handles come first and delta rows restart at 0, so one
  /// running row offset over the handles finds every table.
  std::vector<std::vector<float>> ColumnsLocked(size_t handle,
                                                size_t first_row) const
      LAKS_REQUIRES_SHARED(mu_);
  /// Drops tombstoned hits and truncates to `m` (in place).
  void FilterDeadLocked(ColumnHits* hits, size_t m) const
      LAKS_REQUIRES_SHARED(mu_);
  /// Unanalyzed on purpose: moves must not overlap any other operation on
  /// either operand (the documented move contract), so no lock is held —
  /// there is no lock the analysis could be told about.
  void MoveFieldsFrom(LakeIndex&& other) LAKS_NO_THREAD_SAFETY_ANALYSIS;

  // Queries take mu_ shared for their whole duration; mutations take it
  // exclusive for the (brief) state change.
  mutable SharedMutex mu_;

  size_t dim_;  // immutable after construction (moves excepted)
  std::vector<std::string> table_ids_ LAKS_GUARDED_BY(mu_);
  // Column count, by handle.
  std::vector<size_t> column_counts_ LAKS_GUARDED_BY(mu_);
  // Base segment: handles [0, base_tables_).
  ColumnEmbeddingIndex index_ LAKS_GUARDED_BY(mu_);

  bool sealed_ LAKS_GUARDED_BY(mu_) = false;
  size_t base_tables_ LAKS_GUARDED_BY(mu_) = 0;
  // Delta segment: float32 flat, by handle.
  std::unique_ptr<ColumnEmbeddingIndex> delta_ LAKS_GUARDED_BY(mu_);
  // Tombstones, by handle.
  std::vector<uint8_t> dead_ LAKS_GUARDED_BY(mu_);
  size_t dead_tables_ LAKS_GUARDED_BY(mu_) = 0;
  // Over-fetch budget for base searches.
  size_t dead_base_columns_ LAKS_GUARDED_BY(mu_) = 0;
  size_t dead_delta_columns_ LAKS_GUARDED_BY(mu_) = 0;
  // id -> handles bearing it, oldest first (RemoveTable kills the newest
  // live one; duplicate ids are legal, as they always were in AddTable).
  std::unordered_map<std::string, std::vector<size_t>> handles_by_id_
      LAKS_GUARDED_BY(mu_);
  // The image PrepareCompaction built for CommitCompaction (null when the
  // lake was unchurned).
  std::unique_ptr<LakeIndex> compacted_ LAKS_GUARDED_BY(mu_);
};

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_LAKE_INDEX_H_
