// The lake coordinator, and ShardedLakeIndex — the coordinator over
// in-process shards (paper Sec V: the lake's column embeddings indexed
// offline, only the query table embedded online, tables ranked by the
// Fig 6 column-match aggregation).
//
// LakeCoordinator is the one query and mutation stack above the Shard seam
// (search/shard.h). Tables are routed to shards by a stable hash of their
// string id (util/hash.h StableShard), so every column of a table lives in
// exactly one shard and the assignment survives rebuilds. A query batch is
// scattered whole to every shard (one Shard::SearchColumnsBatch call each,
// over a ThreadPool when one is given); the coordinator remaps the
// shard-local table handles to global ones, k-way-merges the per-shard
// sorted lists (TableRanker::MergeColumnHits), ranks them (Fig 6
// RANK1/RANK2) and maps the ranked handles to ids — all under one shared
// epoch lock. Over flat shards the results are bit-identical to a 1-shard
// lake over the same corpus.
//
// The two deployments are this coordinator over two Shard implementations:
// ShardedLakeIndex over in-process LakeIndex shards (infallible surface)
// and server::DistributedLakeIndex over server::RemoteShard worker
// connections (Result surface).
//
// On disk a sharded lake is a "LAKS" manifest (search/lake_manifest.h)
// next to one "LAK2" LakeIndex file per shard; Save and Load handle the
// shard files in parallel. Legacy single-file "LAK2"/"LAKE" indexes load
// as a 1-shard index.
#ifndef TSFM_SEARCH_SHARDED_LAKE_INDEX_H_
#define TSFM_SEARCH_SHARDED_LAKE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "search/lake_index.h"
#include "search/lake_manifest.h"
#include "search/shard.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tsfm {
class ThreadPool;
}  // namespace tsfm

namespace tsfm::search {

/// Point-in-time churn counters (the shape of the STATS churn fields).
struct LakeChurnCounters {
  uint64_t pending_delta_tables = 0;
  uint64_t pending_tombstones = 0;
  uint64_t compactions = 0;
};

/// \brief One lake over a fixed set of shards: routing, the global handle
/// space, scatter/merge/rank, and mutations with an epoch-consistent
/// compaction.
///
/// Concurrency: queries hold the epoch lock shared across scatter, remap,
/// merge, rank and the id gather, so every answer belongs to one epoch.
/// Mutations serialize behind a writer mutex. AddTable changes a shard's
/// handle space and the maps together under the exclusive epoch lock;
/// RemoveTable only tombstones and runs beside queries. Compact prepares
/// every shard while queries continue, then commits every shard and
/// swaps the re-densified maps in one exclusive section — so a query sees
/// the lake before or after a compaction, never between.
///
/// Failures are per shard and name it (a remote shard's worker died, ...).
/// Mutations are fail-stop: once any shard reports it may have lost step
/// with the maps (Shard::Writable), every later mutation is refused.
/// Vectors of the wrong dim or with a non-finite component, in a query or
/// a new table, are kInvalidArgument before any shard sees them
/// (CheckVectors).
class LakeCoordinator {
 public:
  virtual ~LakeCoordinator();

  /// Moves must not overlap any other operation on either operand (a moved
  /// coordinator re-arms fresh locks).
  LakeCoordinator(LakeCoordinator&& other) noexcept;
  LakeCoordinator& operator=(LakeCoordinator&& other) noexcept;
  LakeCoordinator(const LakeCoordinator&) = delete;
  LakeCoordinator& operator=(const LakeCoordinator&) = delete;

  /// Ranked table ids for a join query on a single column.
  Result<std::vector<std::string>> QueryJoinable(
      const std::vector<float>& query_column, size_t k,
      ThreadPool* pool = nullptr) const LAKS_EXCLUDES(mu_);

  /// Ranked table ids for a union/subset query (Fig 6 multi-column rank).
  Result<std::vector<std::string>> QueryUnionable(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      ThreadPool* pool = nullptr) const LAKS_EXCLUDES(mu_);

  /// One QueryJoinable result per query column, from one scatter of the
  /// whole batch. The first shard failure fails the batch.
  Result<std::vector<std::vector<std::string>>> QueryJoinableBatch(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      ThreadPool* pool = nullptr) const LAKS_EXCLUDES(mu_);

  /// One QueryUnionable result per query; every query's columns ride one
  /// scatter.
  Result<std::vector<std::vector<std::string>>> QueryUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      ThreadPool* pool = nullptr) const LAKS_EXCLUDES(mu_);

  /// \brief The global top-`m` column hits per query, below the Fig 6
  /// ranking.
  ///
  /// Each shard answers the whole batch in one call — on flat shards the
  /// multi-query scan, so rows stream from memory once per batch — and
  /// the per-shard lists are remapped to global handles and merged.
  /// Result q equals the search of query q alone.
  Result<std::vector<ColumnHits>> SearchColumnHitsBatch(
      const std::vector<std::vector<float>>& queries, size_t m,
      ThreadPool* pool = nullptr) const LAKS_EXCLUDES(mu_);

  /// Routes the table to its shard and registers it under the next global
  /// handle (dense, in insertion order), stored in `*handle` when given.
  Status AddTable(const std::string& table_id,
                  const std::vector<std::vector<float>>& columns,
                  size_t* handle = nullptr) LAKS_EXCLUDES(writer_mu_, mu_);

  /// Tombstones the newest live table named `table_id` in its shard. The
  /// handle stays allocated until the next compaction. kNotFound when no
  /// live table has that id.
  Status RemoveTable(const std::string& table_id)
      LAKS_EXCLUDES(writer_mu_, mu_);

  /// \brief Folds every shard's deltas + tombstones and re-densifies the
  /// global handles (survivors keep their insertion order).
  ///
  /// Shards prepare in parallel over `pool` while queries continue; the
  /// commits and the map swap then run in one exclusive section.
  /// Post-compaction flat rankings are bit-identical to a from-scratch
  /// build of the surviving tables in insertion order.
  Status Compact(ThreadPool* pool = nullptr) LAKS_EXCLUDES(writer_mu_, mu_);

  /// Every table id in global handle order, from one epoch.
  std::vector<std::string> TableIds() const LAKS_EXCLUDES(mu_);
  /// The id behind a global handle (a copy: a concurrent compaction may
  /// re-densify the maps).
  std::string table_id(size_t handle) const LAKS_EXCLUDES(mu_);

  size_t num_shards() const { return shards_.size(); }
  /// Global handle-space size: live + tombstoned tables.
  size_t num_tables() const LAKS_EXCLUDES(mu_);
  /// Tables a query can still return.
  size_t num_live_tables() const { return SumCounts().live_tables; }
  /// Columns indexed across all shards (the ceiling on search results).
  size_t num_columns() const { return SumCounts().columns; }
  size_t dim() const { return dim_; }
  const IndexOptions& options() const { return options_; }
  /// The shard `table_id` routes to (stable across rebuilds and processes).
  size_t shard_of(const std::string& table_id) const;

  LakeChurnCounters Churn() const LAKS_EXCLUDES(mu_);
  /// Delta tables across all shards awaiting the next compaction.
  size_t pending_delta_tables() const {
    return SumCounts().pending_delta_tables;
  }
  /// Tombstoned-but-not-yet-compacted tables across all shards.
  size_t pending_tombstones() const { return SumCounts().pending_tombstones; }
  /// Completed Compact calls on this coordinator.
  uint64_t compactions() const { return Churn().compactions; }
  /// True when any shard carries pending deltas or tombstones.
  bool churned() const {
    return pending_delta_tables() + pending_tombstones() > 0;
  }

 protected:
  /// `options.storage` is normalized to float32 for HNSW (which stores
  /// floats whatever the knob says), so it describes the shards.
  LakeCoordinator(size_t dim, const IndexOptions& options,
                  std::vector<std::unique_ptr<Shard>> shards);

  /// \brief Builds the global handle space from a manifest's locator:
  /// handle h is (shard, local) = locator[h], named by that shard's table
  /// id.
  ///
  /// Every shard table must be claimed by exactly one record, and the
  /// shards' live count must match the manifest's; `path` names the
  /// manifest in errors. Call before the coordinator is shared.
  Status IndexFromLocator(const LakeManifest& manifest,
                          const std::string& path) LAKS_EXCLUDES(mu_);

  /// The manifest describing this lake (locator and counts included) with
  /// shard files named after `basename`.
  LakeManifest ManifestLocked(const std::string& basename) const
      LAKS_REQUIRES_SHARED(mu_);

  /// \brief Handle-level Fig 6 ranking of a batch in one scatter.
  ///
  /// Query q owns columns [offset[q], offset[q + 1]) of `columns`; a join
  /// query is a one-column query. `excludes[q]` is dropped from query q's
  /// ranking (empty = none). When `ids` is given the ranked handles are
  /// mapped to at most `k` ids each in the same epoch.
  Result<std::vector<std::vector<size_t>>> Rank(
      const std::vector<std::vector<float>>& columns,
      const std::vector<size_t>& offset, size_t k,
      const std::vector<size_t>& excludes, ThreadPool* pool,
      std::vector<std::vector<std::string>>* ids) const LAKS_EXCLUDES(mu_);

  Shard& shard(size_t s) const { return *shards_[s]; }
  /// Runs `fn(s)` for every shard, over `pool` when there are several.
  template <typename Fn>
  void ForEachShard(ThreadPool* pool, Fn&& fn) const;

  // Lock order: writer_mu_ before mu_ (before any shard's own locks).
  // mutable: Save is const but must exclude mutations so the manifest and
  // shard files describe one epoch.
  mutable Mutex writer_mu_;
  mutable SharedMutex mu_ LAKS_ACQUIRED_AFTER(writer_mu_);

 private:
  ShardCounts SumCounts() const;
  Result<std::vector<ColumnHits>> SearchColumnHitsBatchLocked(
      const std::vector<std::vector<float>>& queries, size_t m,
      ThreadPool* pool) const LAKS_REQUIRES_SHARED(mu_);
  /// OK when every shard accepts mutations.
  Status MutationGate() const LAKS_REQUIRES(writer_mu_);
  /// Unanalyzed on purpose: moves must not overlap any other operation on
  /// either operand (the documented move contract), so no lock is held.
  void MoveFieldsFrom(LakeCoordinator&& other) LAKS_NO_THREAD_SAFETY_ANALYSIS;

  // dim_, options_ and the shard set are fixed before the coordinator is
  // shared (moves excepted), so they are read without the lock; each
  // shard carries its own locks.
  size_t dim_;
  IndexOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // handle -> id
  std::vector<std::string> global_ids_ LAKS_GUARDED_BY(mu_);
  // handle -> (shard, local)
  std::vector<std::pair<size_t, size_t>> locator_ LAKS_GUARDED_BY(mu_);
  // shard -> local -> handle
  std::vector<std::vector<size_t>> to_global_ LAKS_GUARDED_BY(mu_);
  uint64_t compactions_ LAKS_GUARDED_BY(mu_) = 0;
};

/// \brief The coordinator over in-process LakeIndex shards.
///
/// Its query surface cannot fail (an in-process shard never does), so it
/// returns plain values; mutations and Compact are safe beside queries
/// exactly as LakeCoordinator describes. Input that LakeCoordinator
/// rejects (a wrong-dim or non-finite vector) check-fails here, as
/// LakeIndex::AddTable does on a wrong dim: validate untrusted vectors
/// through the LakeCoordinator surface, which returns the Status. Each
/// shard's Save reads its rows back from its segment indexes, so the
/// shard files are self-contained (an HNSW one carries its graph).
class ShardedLakeIndex : public LakeCoordinator {
 public:
  /// Creates an empty index of `num_shards` shards (clamped to >= 1), each
  /// a LakeIndex configured by `options`.
  ShardedLakeIndex(size_t dim, size_t num_shards,
                   const IndexOptions& options = {});

  /// Registers the table (see LakeCoordinator::AddTable) and returns its
  /// global handle. Before Seal() the table joins its shard's base
  /// segment (bulk build), afterwards its delta segment (live ingest).
  size_t AddTable(const std::string& table_id,
                  const std::vector<std::vector<float>>& column_embeddings);

  /// Ends the bulk-build phase on every shard: later AddTable calls land
  /// in delta segments. Idempotent; Load() and Compact() seal.
  void Seal() LAKS_EXCLUDES(writer_mu_, mu_);

  /// LakeCoordinator's query surface, unwrapped: an in-process shard
  /// cannot fail, so an error here check-fails as a bug.
  std::vector<std::string> QueryUnionable(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      ThreadPool* pool = nullptr) const;
  std::vector<std::string> QueryJoinable(const std::vector<float>& query_column,
                                         size_t k,
                                         ThreadPool* pool = nullptr) const;
  std::vector<std::vector<std::string>> QueryUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      ThreadPool* pool = nullptr) const;
  std::vector<std::vector<std::string>> QueryJoinableBatch(
      const std::vector<std::vector<float>>& query_columns, size_t k,
      ThreadPool* pool = nullptr) const;
  std::vector<ColumnHits> SearchColumnHitsBatch(
      const std::vector<std::vector<float>>& queries, size_t m,
      ThreadPool* pool = nullptr) const;

  /// \brief Handle-level ranking with exclude handles.
  ///
  /// Returns global table handles instead of ids and drops `excludes[q]`
  /// from query q (empty = none) — the entry point RunSearch uses, where
  /// the query table itself is part of the corpus. A join query is a
  /// one-column query.
  std::vector<std::vector<size_t>> RankUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      const std::vector<size_t>& excludes, ThreadPool* pool = nullptr) const;

  /// \brief Wraps an already-built single LakeIndex as a 1-shard index.
  ///
  /// Used for legacy single-file formats and by shard workers, which serve
  /// exactly one shard file of a distributed lake through the regular
  /// coordinator surface.
  static ShardedLakeIndex FromSingle(LakeIndex&& shard);

  /// \brief Persists the index as a "LAKS" manifest plus one shard file
  /// per shard.
  ///
  /// `path` names the manifest; shard s is written next to it as
  /// "<basename>.shard-<s>" and recorded in the manifest by that relative
  /// name. Shard files are written in parallel over `pool` when given.
  Status Save(const std::string& path, ThreadPool* pool = nullptr) const
      LAKS_EXCLUDES(writer_mu_, mu_);

  /// \brief Loads an index written by Save, shards in parallel over `pool`.
  ///
  /// The manifest records the global handle space, so handles assigned by
  /// AddTable before Save stay valid after Load. A missing shard file, a
  /// truncated manifest, or metadata that contradicts the shard files
  /// yields an error Status. A legacy single-file "LAK2"/"LAKE" index
  /// loads as a 1-shard index.
  static Result<ShardedLakeIndex> Load(const std::string& path,
                                       ThreadPool* pool = nullptr);

  /// Number of tables resident in shard `s` (live + tombstoned).
  size_t shard_size(size_t s) const { return shard(s).Counts().tables; }

 private:
  ShardedLakeIndex(size_t dim, const IndexOptions& options,
                   std::vector<std::unique_ptr<Shard>> shards)
      : LakeCoordinator(dim, options, std::move(shards)) {}

  LakeIndex& lake(size_t s) const { return static_cast<LakeIndex&>(shard(s)); }
};

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_SHARDED_LAKE_INDEX_H_
