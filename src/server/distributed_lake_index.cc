#include "server/distributed_lake_index.h"

#include <algorithm>
#include <utility>

namespace tsfm::server {

Result<DistributedLakeIndex> DistributedLakeIndex::Connect(
    const std::string& manifest_path,
    const std::vector<std::string>& worker_sockets,
    const DistributedOptions& options) {
  Result<search::LakeManifest> parsed =
      search::LoadLakeManifest(manifest_path);
  if (!parsed.ok()) return parsed.status();
  const search::LakeManifest& manifest = parsed.value();
  if (worker_sockets.size() != manifest.num_shards()) {
    return Status::InvalidArgument(
        "manifest " + manifest_path + " has " +
        std::to_string(manifest.num_shards()) + " shards but " +
        std::to_string(worker_sockets.size()) + " worker sockets were given");
  }
  // Per-shard table counts from one locator pass, for the handshakes.
  std::vector<size_t> expected(manifest.num_shards(), 0);
  for (const auto& [shard, local] : manifest.locator) ++expected[shard];
  std::vector<std::unique_ptr<search::Shard>> shards;
  for (size_t s = 0; s < worker_sockets.size(); ++s) {
    auto remote = RemoteShard::Connect(s, worker_sockets[s], manifest,
                                       expected[s], options);
    if (!remote.ok()) return remote.status();
    shards.push_back(std::move(remote).value());
  }
  search::IndexOptions index_options;
  index_options.backend = manifest.backend;
  index_options.metric = manifest.metric;
  index_options.storage = manifest.storage;
  DistributedLakeIndex index(static_cast<size_t>(manifest.dim), index_options,
                             std::move(shards));
  if (Status status = index.IndexFromLocator(manifest, manifest_path);
      !status.ok()) {
    return status;
  }
  return index;
}

Result<std::vector<ShardHealth>> DistributedLakeIndex::Health() const {
  std::vector<ShardHealth> health;
  for (size_t s = 0; s < num_shards(); ++s) {
    Result<ShardHealth> one = remote(s).Health();
    if (!one.ok()) return one.status();
    health.push_back(std::move(one).value());
  }
  return health;
}

Result<ServerStats> DistributedLakeIndex::AggregateStats() const {
  ServerStats total;
  for (size_t s = 0; s < num_shards(); ++s) {
    Result<ServerStats> one = remote(s).Stats();
    if (!one.ok()) return one.status();
    const ServerStats& stats = one.value();
    total.requests += stats.requests;
    total.batches += stats.batches;
    total.max_batch = std::max(total.max_batch, stats.max_batch);
    total.total_queue_wait_ms += stats.total_queue_wait_ms;
    total.total_latency_ms += stats.total_latency_ms;
    total.pending_delta_tables += stats.pending_delta_tables;
    total.pending_tombstones += stats.pending_tombstones;
    total.compactions += stats.compactions;
  }
  return total;
}

}  // namespace tsfm::server
