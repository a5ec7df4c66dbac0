#include "server/remote_shard.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace tsfm::server {

namespace {

// SHARD_QUERY payload shapes (server/protocol.cc): a request is a 14-byte
// header (version, opcode, k, column count, dim) plus dim floats per
// column; a response is a 7-byte header (version, opcode, status, list
// count) plus, per column, a 4-byte hit count and 16 bytes per hit.
constexpr size_t kHeaderBytes = 14;
constexpr size_t kHitBytes = sizeof(uint64_t) + sizeof(uint32_t) + sizeof(float);

}  // namespace

Status RemoteShard::Annotate(const Status& status) const {
  return Status(status.code(), "shard " + std::to_string(shard_) + " (" +
                                   socket_path_ + "): " + status.message());
}

Result<std::unique_ptr<LakeClient>> RemoteShard::Acquire() const {
  {
    MutexLock lock(&pool_mu_);
    if (!idle_.empty()) {
      auto client = std::move(idle_.back());
      idle_.pop_back();
      return client;
    }
  }
  auto client = std::make_unique<LakeClient>(options_.max_frame_bytes);
  client->set_timeout_ms(options_.shard_timeout_ms);
  if (Status s = client->Connect(socket_path_); !s.ok()) return s;
  return client;
}

void RemoteShard::Release(std::unique_ptr<LakeClient> client) const {
  if (client == nullptr || !client->connected()) return;
  MutexLock lock(&pool_mu_);
  if (idle_.size() < options_.max_idle_connections_per_shard) {
    idle_.push_back(std::move(client));
  }
}

// A dead worker invalidates every pooled connection to it at once; dropping
// them makes a retry connect fresh instead of cycling through stale fds.
void RemoteShard::DropIdle() const {
  MutexLock lock(&pool_mu_);
  idle_.clear();
}

// Runs `fn(client)` with retry-once: a transport failure (the client
// closed its connection: worker died, timeout, stale socket) drops the
// idle pool and retries on a fresh connection, which is safe because reads
// are idempotent. A server-side error (connection still open) is
// deterministic and returned at once.
template <typename Fn>
auto RemoteShard::Read(Fn&& fn) const
    -> decltype(fn(std::declval<LakeClient&>())) {
  Status last = Status::OK();
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto conn = Acquire();
    if (!conn.ok()) {
      last = conn.status();
      DropIdle();
      continue;
    }
    std::unique_ptr<LakeClient> client = std::move(conn).value();
    auto result = fn(*client);
    const bool transport_failure = !result.ok() && !client->connected();
    Release(std::move(client));
    if (result.ok()) return result;
    if (!transport_failure) return Annotate(result.status());
    last = result.status();
    DropIdle();
  }
  return Annotate(last);
}

// Runs a mutation exactly once. A failure to connect means it did not
// happen; a transport failure after the send means it may have, so the
// mirror can no longer be trusted.
template <typename Fn>
Status RemoteShard::Mutate(Fn&& fn) {
  auto conn = Acquire();
  if (!conn.ok()) {
    DropIdle();
    return Annotate(conn.status());
  }
  std::unique_ptr<LakeClient> client = std::move(conn).value();
  Status status = fn(*client);
  const bool transport_failure = !status.ok() && !client->connected();
  Release(std::move(client));
  if (transport_failure) {
    DropIdle();
    MutexLock lock(&mu_);
    out_of_sync_ = true;
  }
  return status.ok() ? status : Annotate(status);
}

Result<ShardHealth> RemoteShard::Health() const {
  return Read([](LakeClient& client) { return client.Health(); });
}

Result<ServerStats> RemoteShard::Stats() const {
  return Read([](LakeClient& client) { return client.Stats(); });
}

Result<std::unique_ptr<RemoteShard>> RemoteShard::Connect(
    size_t shard, const std::string& socket_path,
    const search::LakeManifest& manifest, size_t expected_tables,
    const DistributedOptions& options) {
  std::unique_ptr<RemoteShard> remote(
      new RemoteShard(shard, socket_path, options));
  Result<ShardHealth> health = remote->Health();
  if (!health.ok()) return health.status();
  const ShardHealth& h = health.value();
  auto reject = [&](const std::string& what) {
    return remote->Annotate(Status::InvalidArgument(what));
  };
  if (h.protocol_version != kProtocolVersion) {
    return reject("worker speaks protocol version " +
                  std::to_string(h.protocol_version) +
                  ", coordinator requires " + std::to_string(kProtocolVersion));
  }
  if (h.dim != manifest.dim) {
    return reject("worker dim " + std::to_string(h.dim) +
                  " disagrees with manifest dim " +
                  std::to_string(manifest.dim));
  }
  if (h.backend != static_cast<uint8_t>(manifest.backend) ||
      h.metric != static_cast<uint8_t>(manifest.metric)) {
    return reject("worker backend/metric disagrees with the manifest");
  }
  if (h.num_tables != expected_tables) {
    return reject("worker holds " + std::to_string(h.num_tables) +
                  " tables, manifest routes " +
                  std::to_string(expected_tables) + " to this shard");
  }
  Result<std::vector<std::string>> tables =
      remote->Read([](LakeClient& client) { return client.ShardTables(); });
  if (!tables.ok()) return tables.status();
  if (tables.value().size() != expected_tables) {
    return reject("worker table list disagrees with its health counters");
  }
  Result<ServerStats> stats = remote->Stats();
  if (!stats.ok()) return stats.status();

  // Not yet shared; the lock is uncontended and exists for the checker.
  MutexLock lock(&remote->mu_);
  remote->ids_ = std::move(tables).value();
  remote->dead_.assign(remote->ids_.size(), 0);
  for (size_t local = 0; local < remote->ids_.size(); ++local) {
    remote->live_by_id_[remote->ids_[local]].push_back(local);
  }
  remote->columns_ = static_cast<size_t>(h.num_columns);
  remote->pending_delta_tables_ =
      static_cast<size_t>(stats.value().pending_delta_tables);
  remote->tombstones_ = static_cast<size_t>(stats.value().pending_tombstones);
  remote->unseen_tombstones_ = remote->tombstones_ > 0;
  // The guard only references the shard, which the returned pointer keeps
  // alive, so unlocking at scope exit is safe.
  return remote;
}

Result<std::vector<search::ColumnHits>> RemoteShard::SearchColumnsBatch(
    const std::vector<std::vector<float>>& queries, size_t m,
    ThreadPool* pool) const {
  (void)pool;
  size_t tables = 0, columns = 0;
  {
    MutexLock lock(&mu_);
    tables = ids_.size();
    columns = columns_;
  }
  // Split only where one frame would overflow: the protocol's column cap,
  // the request, or the worst-case response (the worker clamps m to its
  // column count).
  const size_t dim = queries.empty() ? 0 : queries[0].size();
  const size_t per_column = std::max(
      dim * sizeof(float), sizeof(uint32_t) + std::min(m, columns) * kHitBytes);
  const size_t room = options_.max_frame_bytes > kHeaderBytes
                          ? options_.max_frame_bytes - kHeaderBytes
                          : 0;
  const size_t chunk = std::clamp<size_t>(room / per_column, 1, kMaxColumns);

  std::vector<search::ColumnHits> out;
  out.reserve(queries.size());
  for (size_t begin = 0; begin < queries.size(); begin += chunk) {
    const size_t end = std::min(queries.size(), begin + chunk);
    // The usual single-frame batch goes out without a copy.
    std::vector<std::vector<float>> copy;
    if (end - begin < queries.size()) {
      copy.assign(queries.begin() + begin, queries.begin() + end);
    }
    const auto& sent = copy.empty() ? queries : copy;
    auto lists = Read(
        [&](LakeClient& client) { return client.ShardQuery(sent, m); });
    if (!lists.ok()) return lists.status();
    if (lists.value().size() != sent.size()) {
      return Annotate(Status::ParseError(
          "worker answered " + std::to_string(lists.value().size()) +
          " hit lists for " + std::to_string(sent.size()) + " columns"));
    }
    for (const std::vector<ShardHit>& list : lists.value()) {
      search::ColumnHits& hits = out.emplace_back();
      hits.reserve(list.size());
      for (const ShardHit& hit : list) {
        if (hit.table >= tables) {
          return Annotate(
              Status::ParseError("worker returned unknown table handle " +
                                 std::to_string(hit.table)));
        }
        hits.push_back({static_cast<size_t>(hit.table), hit.column,
                        hit.distance});
      }
    }
  }
  return out;
}

Result<size_t> RemoteShard::Add(
    const std::string& table_id,
    const std::vector<std::vector<float>>& columns) {
  Status sent = Mutate([&](LakeClient& client) {
    return client.AddTable(table_id, columns);
  });
  if (!sent.ok()) return sent;
  MutexLock lock(&mu_);
  const size_t local = ids_.size();
  ids_.push_back(table_id);
  dead_.push_back(0);
  live_by_id_[table_id].push_back(local);
  columns_ += columns.size();
  ++pending_delta_tables_;
  return local;
}

Status RemoteShard::RemoveTable(const std::string& table_id) {
  size_t victim = SIZE_MAX;
  {
    // The mirror follows the worker's newest-live rule, so a miss here
    // needs no wire trip.
    MutexLock lock(&mu_);
    auto it = live_by_id_.find(table_id);
    if (it != live_by_id_.end()) victim = it->second.back();
  }
  if (victim == SIZE_MAX) {
    return Status::NotFound("no live table with id \"" + table_id + "\"");
  }
  Status sent = Mutate(
      [&](LakeClient& client) { return client.RemoveTable(table_id); });
  MutexLock lock(&mu_);
  // The worker disagreeing that the table exists is divergence too.
  if (sent.code() == StatusCode::kNotFound) out_of_sync_ = true;
  if (!sent.ok()) return sent;
  dead_[victim] = 1;
  ++tombstones_;
  auto it = live_by_id_.find(table_id);
  it->second.pop_back();
  if (it->second.empty()) live_by_id_.erase(it);
  return Status::OK();
}

Result<std::vector<size_t>> RemoteShard::PrepareCompaction() {
  MutexLock lock(&mu_);
  std::vector<size_t> remap(ids_.size(), SIZE_MAX);
  size_t next = 0;
  for (size_t local = 0; local < ids_.size(); ++local) {
    if (dead_[local] == 0) remap[local] = next++;
  }
  return remap;
}

Status RemoteShard::CommitCompaction() {
  Status sent = Mutate([](LakeClient& client) { return client.Compact(); });
  if (!sent.ok()) return sent;
  Result<ShardHealth> health = Health();
  MutexLock lock(&mu_);
  const size_t survivors = ids_.size() - tombstones_;
  if (!health.ok() || health.value().num_tables != survivors) {
    // The worker compacted but its handle space is not the predicted one.
    out_of_sync_ = true;
    if (!health.ok()) return health.status();
    return Annotate(Status::Internal(
        "worker holds " + std::to_string(health.value().num_tables) +
        " tables after compaction, coordinator expected " +
        std::to_string(survivors) + "; reconnect to recover"));
  }
  std::vector<std::string> ids;
  ids.reserve(survivors);
  live_by_id_.clear();
  for (size_t local = 0; local < ids_.size(); ++local) {
    if (dead_[local] != 0) continue;
    live_by_id_[ids_[local]].push_back(ids.size());
    ids.push_back(std::move(ids_[local]));
  }
  ids_ = std::move(ids);
  dead_.assign(ids_.size(), 0);
  columns_ = static_cast<size_t>(health.value().num_columns);
  pending_delta_tables_ = 0;
  tombstones_ = 0;
  return Status::OK();
}

Result<std::vector<std::string>> RemoteShard::TableIds() const {
  MutexLock lock(&mu_);
  return ids_;
}

search::ShardCounts RemoteShard::Counts() const {
  MutexLock lock(&mu_);
  search::ShardCounts counts;
  counts.tables = ids_.size();
  counts.live_tables = ids_.size() - tombstones_;
  counts.columns = columns_;
  counts.pending_delta_tables = pending_delta_tables_;
  counts.pending_tombstones = tombstones_;
  return counts;
}

Status RemoteShard::Writable() const {
  MutexLock lock(&mu_);
  if (unseen_tombstones_) {
    return Annotate(Status::InvalidArgument(
        "coordinator connected to a churned lake whose tombstones it cannot "
        "see; compact the lake before serving mutations through a "
        "coordinator"));
  }
  if (out_of_sync_) {
    return Annotate(Status::Internal(
        "a previous mutation failed in flight and coordinator bookkeeping "
        "may disagree with the worker; reconnect to recover"));
  }
  return Status::OK();
}

}  // namespace tsfm::server
