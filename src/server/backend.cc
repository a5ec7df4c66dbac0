#include "server/backend.h"

#include <utility>

namespace tsfm::server {

Result<std::vector<std::vector<ShardHit>>> CoordinatorBackend::ShardQuery(
    const std::vector<std::vector<float>>& columns, size_t m,
    ThreadPool* pool) const {
  (void)columns;
  (void)m;
  (void)pool;
  return Status::Unimplemented(
      "this server fronts a distributed coordinator; it is not itself a "
      "shard worker");
}

ShardHealth CoordinatorBackend::Health() const {
  ShardHealth health;
  health.protocol_version = kProtocolVersion;
  health.backend = static_cast<uint8_t>(lake_->options().backend);
  health.metric = static_cast<uint8_t>(lake_->options().metric);
  health.dim = lake_->dim();
  health.num_tables = lake_->num_tables();
  health.num_columns = lake_->num_columns();
  return health;
}

InProcessBackend::InProcessBackend(search::ShardedLakeIndex index)
    : CoordinatorBackend([&index] {
        index.Seal();
        return std::make_unique<search::ShardedLakeIndex>(std::move(index));
      }()) {}

Result<std::vector<std::vector<ShardHit>>> InProcessBackend::ShardQuery(
    const std::vector<std::vector<float>>& columns, size_t m,
    ThreadPool* pool) const {
  // One batched scatter for all columns in the frame: each shard streams
  // its rows once for the whole SHARD_QUERY instead of once per column.
  std::vector<std::vector<ShardHit>> hits(columns.size());
  auto merged = index().SearchColumnHitsBatch(columns, m, pool);
  for (size_t c = 0; c < columns.size(); ++c) {
    hits[c].reserve(merged[c].size());
    for (const auto& hit : merged[c]) {
      hits[c].push_back({static_cast<uint64_t>(hit.table_id),
                         static_cast<uint32_t>(hit.column_index),
                         hit.distance});
    }
  }
  return hits;
}

}  // namespace tsfm::server
