// The seam between LakeServer and whatever actually answers queries.
//
// PR 3's server hard-wired an in-process ShardedLakeIndex; the distributed
// tier needs the same serving front (accept loop, framing, validation,
// batching, graceful shutdown) over a coordinator that talks to shard
// worker processes instead. LakeBackend is that seam: batch query entry
// points returning Result (a distributed backend can fail per-shard), plus
// the shard-worker surface (SHARD_QUERY / HEALTH / SHARD_TABLES) that lets
// any LakeServer also act as one shard of a larger distributed lake.
#ifndef TSFM_SERVER_BACKEND_H_
#define TSFM_SERVER_BACKEND_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "search/sharded_lake_index.h"
#include "server/distributed_lake_index.h"
#include "server/protocol.h"
#include "util/status.h"

namespace tsfm {
class ThreadPool;
}  // namespace tsfm

namespace tsfm::server {

/// \brief What LakeServer serves. All const methods must be
/// const-thread-safe; the mutation entry points (AddTable/RemoveTable/
/// Compact) may run concurrently with queries but are serialized against
/// each other by the backend itself.
class LakeBackend {
 public:
  /// Churn counters reported through the STATS payload.
  using ChurnCounters = search::LakeChurnCounters;

  virtual ~LakeBackend() = default;

  virtual size_t dim() const = 0;
  virtual size_t num_tables() const = 0;
  virtual size_t num_columns() const = 0;

  /// Human-readable backend kind for logs ("in-process", "distributed").
  virtual const char* kind() const = 0;

  /// One ranked-id list per query column (JOIN batch).
  virtual Result<std::vector<std::vector<std::string>>> QueryJoinableBatch(
      const std::vector<std::vector<float>>& queries, size_t k,
      ThreadPool* pool) const = 0;

  /// One ranked-id list per multi-column query (UNION batch).
  virtual Result<std::vector<std::vector<std::string>>> QueryUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      ThreadPool* pool) const = 0;

  /// Raw top-`m` column hits per query column in this backend's handle
  /// space (the SHARD_QUERY opcode). kUnimplemented when this backend is
  /// itself a coordinator — two-level scatter is not supported.
  virtual Result<std::vector<std::vector<ShardHit>>> ShardQuery(
      const std::vector<std::vector<float>>& columns, size_t m,
      ThreadPool* pool) const = 0;

  /// Table ids in handle order (the SHARD_TABLES opcode).
  virtual Result<std::vector<std::string>> TableIds() const = 0;

  /// Identity/shape counters (the HEALTH opcode).
  virtual ShardHealth Health() const = 0;

  /// Live-ingests one table (the ADD_TABLE opcode).
  virtual Status AddTable(const std::string& table_id,
                          const std::vector<std::vector<float>>& columns) = 0;

  /// Tombstones the newest live table with `table_id` (REMOVE_TABLE).
  virtual Status RemoveTable(const std::string& table_id) = 0;

  /// Folds deltas + tombstones into the base segments (COMPACT). May fan
  /// the per-shard rebuilds over `pool`.
  virtual Status Compact(ThreadPool* pool) = 0;

  /// Point-in-time churn counters (the STATS churn fields).
  virtual ChurnCounters Churn() const = 0;
};

/// \brief LakeBackend over an owned lake coordinator.
///
/// Every opcode but SHARD_QUERY maps onto the coordinator's Result
/// surface, whichever kind of shard it coordinates.
class CoordinatorBackend : public LakeBackend {
 public:
  size_t dim() const override { return lake_->dim(); }
  size_t num_tables() const override { return lake_->num_tables(); }
  size_t num_columns() const override { return lake_->num_columns(); }

  Result<std::vector<std::vector<std::string>>> QueryJoinableBatch(
      const std::vector<std::vector<float>>& queries, size_t k,
      ThreadPool* pool) const override {
    return lake_->QueryJoinableBatch(queries, k, pool);
  }
  Result<std::vector<std::vector<std::string>>> QueryUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      ThreadPool* pool) const override {
    return lake_->QueryUnionableBatch(queries, k, pool);
  }
  /// kUnimplemented unless overridden: a coordinator over remote shards
  /// is not itself a shard (two-level scatter is not supported).
  Result<std::vector<std::vector<ShardHit>>> ShardQuery(
      const std::vector<std::vector<float>>& columns, size_t m,
      ThreadPool* pool) const override;
  /// One snapshot of the ids, taken under the coordinator's epoch lock.
  Result<std::vector<std::string>> TableIds() const override {
    return lake_->TableIds();
  }
  ShardHealth Health() const override;
  Status AddTable(const std::string& table_id,
                  const std::vector<std::vector<float>>& columns) override {
    return lake_->AddTable(table_id, columns);
  }
  Status RemoveTable(const std::string& table_id) override {
    return lake_->RemoveTable(table_id);
  }
  Status Compact(ThreadPool* pool) override { return lake_->Compact(pool); }
  ChurnCounters Churn() const override { return lake_->Churn(); }

 protected:
  explicit CoordinatorBackend(std::unique_ptr<search::LakeCoordinator> lake)
      : lake_(std::move(lake)) {}
  const search::LakeCoordinator& lake() const { return *lake_; }

 private:
  std::unique_ptr<search::LakeCoordinator> lake_;
};

/// \brief The coordinator over in-process shards.
///
/// The single-server deployment, and — over a 1-shard index loaded from
/// one shard file — what a lake_shard_worker process serves.
class InProcessBackend final : public CoordinatorBackend {
 public:
  /// A served lake is a live artifact: tables ingested from here on are
  /// churn (delta segments + tombstones), not bulk build, on every shard.
  explicit InProcessBackend(search::ShardedLakeIndex index);

  const search::ShardedLakeIndex& index() const {
    return static_cast<const search::ShardedLakeIndex&>(lake());
  }
  const char* kind() const override { return "in-process"; }
  /// The lake's global top-`m` hits per column in one batched scatter:
  /// what a worker answers its coordinator.
  Result<std::vector<std::vector<ShardHit>>> ShardQuery(
      const std::vector<std::vector<float>>& columns, size_t m,
      ThreadPool* pool) const override;
};

/// \brief The coordinator over shard worker processes.
///
/// Lets the public LakeServer front a fleet of shard worker processes with
/// the exact same wire surface clients already speak.
class DistributedBackend final : public CoordinatorBackend {
 public:
  explicit DistributedBackend(DistributedLakeIndex index)
      : CoordinatorBackend(
            std::make_unique<DistributedLakeIndex>(std::move(index))) {}

  const DistributedLakeIndex& index() const {
    return static_cast<const DistributedLakeIndex&>(lake());
  }
  const char* kind() const override { return "distributed"; }
};

}  // namespace tsfm::server

#endif  // TSFM_SERVER_BACKEND_H_
