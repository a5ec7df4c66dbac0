// One shard of a distributed lake reached over the wire: the Shard seam
// (search/shard.h) over pooled LakeClient connections to a worker process
// (lake_shard_worker, or any LakeServer serving one shard file).
//
// Reads (SHARD_QUERY, HEALTH, STATS) are idempotent: each round trip is
// bounded by DistributedOptions::shard_timeout_ms, and a transport failure
// (worker killed, socket gone, timeout) is retried once on a fresh
// connection. Mutations (ADD_TABLE, REMOVE_TABLE, COMPACT) are sent exactly
// once: when one fails after it may have reached the worker, the shard
// stops being Writable() and its coordinator refuses every later mutation.
// Every error names the shard and its socket.
//
// The worker never reports handles, so the shard mirrors the worker's
// handle space locally — ids in local handle order, tombstones, the
// newest-live rule — from the handshake's table list plus the mutations
// sent through it. That mirror predicts the worker's compaction remap.
#ifndef TSFM_SERVER_REMOTE_SHARD_H_
#define TSFM_SERVER_REMOTE_SHARD_H_

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "search/lake_manifest.h"
#include "search/shard.h"
#include "server/lake_client.h"
#include "server/protocol.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tsfm::server {

/// \brief Coordinator knobs.
///
/// `shard_timeout_ms` bounds each socket send/recv of a worker round trip
/// (a wedged worker — whether it stops writing or stops reading — surfaces
/// as a kIoError naming the shard, not a coordinator hang).
/// `max_idle_connections_per_shard` caps the pooled connections kept warm
/// per worker; concurrent queries above the cap open short-lived extras.
/// `max_frame_bytes` bounds every frame the coordinator sends or accepts:
/// a query batch whose SHARD_QUERY request or worst-case response would not
/// fit is split across frames.
struct DistributedOptions {
  int shard_timeout_ms = 5000;
  size_t max_idle_connections_per_shard = 4;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// \brief A Shard served by a worker process over an AF_UNIX socket.
class RemoteShard final : public search::Shard {
 public:
  /// \brief Handshakes the worker serving shard `shard` of `manifest`.
  ///
  /// Rejects, naming the shard: a worker that cannot be reached, speaks a
  /// different protocol version, disagrees with the manifest on
  /// backend/metric/dim, or holds a table count other than
  /// `expected_tables` (what the manifest's locator routes to it).
  ///
  /// Scale ceiling: the handshake fetches the worker's full table-id list
  /// in one SHARD_TABLES frame, so one shard is limited to the protocol's
  /// 2^20 ids per message (and `max_frame_bytes` of id bytes).
  static Result<std::unique_ptr<RemoteShard>> Connect(
      size_t shard, const std::string& socket_path,
      const search::LakeManifest& manifest, size_t expected_tables,
      const DistributedOptions& options);

  /// One SHARD_QUERY per frame budget (normally one for the whole batch);
  /// the worker fans out over its own pool, so `pool` is unused.
  Result<std::vector<search::ColumnHits>> SearchColumnsBatch(
      const std::vector<std::vector<float>>& queries, size_t m,
      ThreadPool* pool) const override LAKS_EXCLUDES(mu_);
  Result<size_t> Add(const std::string& table_id,
                     const std::vector<std::vector<float>>& columns) override
      LAKS_EXCLUDES(mu_);
  Status RemoveTable(const std::string& table_id) override LAKS_EXCLUDES(mu_);
  /// The worker's rebuild keeps survivors in insertion order; the remap is
  /// predicted from the mirror without a round trip.
  Result<std::vector<size_t>> PrepareCompaction() override LAKS_EXCLUDES(mu_);
  /// Sends COMPACT (the worker compacts while its coordinator holds the
  /// epoch lock), then checks the worker's new table count against the
  /// prediction.
  Status CommitCompaction() override LAKS_EXCLUDES(mu_);
  Result<std::vector<std::string>> TableIds() const override
      LAKS_EXCLUDES(mu_);
  search::ShardCounts Counts() const override LAKS_EXCLUDES(mu_);
  Status Writable() const override LAKS_EXCLUDES(mu_);

  /// Fresh HEALTH from the worker.
  Result<ShardHealth> Health() const;
  /// The worker's STATS (its SHARD_QUERY traffic counts as requests).
  Result<ServerStats> Stats() const;

 private:
  RemoteShard(size_t shard, std::string socket_path,
              const DistributedOptions& options)
      : shard_(shard), socket_path_(std::move(socket_path)), options_(options) {}

  Status Annotate(const Status& status) const;
  Result<std::unique_ptr<LakeClient>> Acquire() const LAKS_EXCLUDES(pool_mu_);
  void Release(std::unique_ptr<LakeClient> client) const
      LAKS_EXCLUDES(pool_mu_);
  void DropIdle() const LAKS_EXCLUDES(pool_mu_);
  template <typename Fn>
  auto Read(Fn&& fn) const -> decltype(fn(std::declval<LakeClient&>()));
  template <typename Fn>
  Status Mutate(Fn&& fn) LAKS_EXCLUDES(mu_);

  const size_t shard_;
  const std::string socket_path_;
  const DistributedOptions options_;

  // Warm connections to the worker. Shared fate: a transport failure drops
  // them all, since they point at the same dead process.
  mutable Mutex pool_mu_;
  mutable std::vector<std::unique_ptr<LakeClient>> idle_
      LAKS_GUARDED_BY(pool_mu_);

  // The mirror of the worker's handle space. Never held across a round
  // trip, so it is never held together with pool_mu_.
  mutable Mutex mu_;
  std::vector<std::string> ids_ LAKS_GUARDED_BY(mu_);
  std::vector<uint8_t> dead_ LAKS_GUARDED_BY(mu_);
  // id -> live local handles, oldest first (removal kills the newest).
  std::unordered_map<std::string, std::vector<size_t>> live_by_id_
      LAKS_GUARDED_BY(mu_);
  size_t columns_ LAKS_GUARDED_BY(mu_) = 0;
  size_t pending_delta_tables_ LAKS_GUARDED_BY(mu_) = 0;
  size_t tombstones_ LAKS_GUARDED_BY(mu_) = 0;
  // The worker already held tombstones at the handshake, which cannot say
  // which handles died: the mirror's newest-live rule could diverge from
  // the worker's, so this shard serves queries but refuses mutations.
  bool unseen_tombstones_ LAKS_GUARDED_BY(mu_) = false;
  // A mutation failed after it may have reached the worker.
  bool out_of_sync_ LAKS_GUARDED_BY(mu_) = false;
};

}  // namespace tsfm::server

#endif  // TSFM_SERVER_REMOTE_SHARD_H_
