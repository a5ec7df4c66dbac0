// The seam between the lake coordinator (search/sharded_lake_index.h) and
// whatever holds one shard's column embeddings: an in-process LakeIndex, or
// a worker process reached over the wire (server/remote_shard.h).
//
// A shard knows only its own dense local handle space (insertion order,
// re-densified by a compaction with survivors keeping their order). The
// coordinator owns everything above it: the global handle maps, routing,
// the scatter -> remap -> merge -> rank path and the epoch lock.
#ifndef TSFM_SEARCH_SHARD_H_
#define TSFM_SEARCH_SHARD_H_

#include <cstddef>
#include <string>
#include <vector>

#include "search/table_ranker.h"
#include "util/status.h"

namespace tsfm {
class ThreadPool;
}  // namespace tsfm

namespace tsfm::search {

using ColumnHits = std::vector<ColumnEmbeddingIndex::ColumnHit>;

/// Shape counters of one shard.
struct ShardCounts {
  size_t tables = 0;  ///< handle space: live + tombstoned
  size_t live_tables = 0;
  size_t columns = 0;  ///< indexed across base + delta, tombstones included
  size_t pending_delta_tables = 0;
  size_t pending_tombstones = 0;
};

/// \brief kInvalidArgument naming the first column whose size is not
/// `dim` or that holds a NaN or infinite component (and that component);
/// OK otherwise.
///
/// Every entry point that takes vectors from outside runs this before any
/// shard sees them: one non-finite row changes other tables' rankings
/// (a NaN distance evicts real candidates from a top-k heap, and SQ8
/// calibrates its range over every row).
Status CheckVectors(const std::vector<std::vector<float>>& columns,
                    size_t dim);

/// \brief One shard of a lake.
///
/// The coordinator serializes every mutation (a PrepareCompaction ..
/// CommitCompaction pair included) and holds its epoch lock exclusive
/// around Add and CommitCompaction, so no query overlaps a change to a
/// shard's handle space. Implementations still make their own reads safe
/// against concurrent queries and RemoveTable.
class Shard {
 public:
  virtual ~Shard() = default;

  /// Top-`m` live column hits per query, each list sorted by (distance,
  /// table, column), tables named by local handle.
  virtual Result<std::vector<ColumnHits>> SearchColumnsBatch(
      const std::vector<std::vector<float>>& queries, size_t m,
      ThreadPool* pool) const = 0;

  /// Appends a table and returns its local handle.
  virtual Result<size_t> Add(
      const std::string& table_id,
      const std::vector<std::vector<float>>& columns) = 0;

  /// Tombstones the newest live table named `table_id`; kNotFound when
  /// there is none.
  virtual Status RemoveTable(const std::string& table_id) = 0;

  /// \brief The half of a compaction that runs while queries keep reading
  /// the current epoch.
  ///
  /// Returns the old -> new local handle remap the commit will apply
  /// (SIZE_MAX for a tombstoned handle, which the commit retires).
  virtual Result<std::vector<size_t>> PrepareCompaction() = 0;

  /// Publishes the prepared compaction. After OK the local handles follow
  /// the remap; after an error they are unchanged unless Writable() says
  /// the shard lost track.
  virtual Status CommitCompaction() = 0;

  /// Table ids in local handle order, tombstoned handles included.
  virtual Result<std::vector<std::string>> TableIds() const = 0;

  virtual ShardCounts Counts() const = 0;

  /// OK while the shard accepts mutations. A shard whose handle space may
  /// no longer match what its coordinator mirrors says why, and the
  /// coordinator then refuses every mutation.
  virtual Status Writable() const { return Status::OK(); }
};

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_SHARD_H_
