// Distributed data-lake index (ROADMAP "Distributed shards"): the lake
// coordinator (search/sharded_lake_index.h) over shards that live in other
// processes. Each shard of a saved "LAKS" lake runs as its own
// lake_shard_worker process serving one shard file over the AF_UNIX wire
// protocol; this coordinator opens only the manifest, handshakes every
// worker through a server::RemoteShard, and answers the same join/union
// surface through the same scatter -> remap -> merge -> Fig 6 rank path
// ShardedLakeIndex runs in process.
//
// Parity: a query batch goes to each worker as one SHARD_QUERY carrying
// the precomputed query embeddings (so workers never re-embed), split only
// where a frame would overflow; each worker answers its sorted top-m
// column hits in its local handle space, and the coordinator remaps them
// through the manifest's locator into the global insertion order — which
// makes flat-backend results bit-identical to ShardedLakeIndex::Load of
// the same manifest (tests/distributed_lake_index_test.cc proves this at
// 1/2/4 workers).
//
// Failure semantics live in RemoteShard: bounded round trips, retry-once
// reads, exactly-once fail-stop mutations, and errors that name the shard
// and its socket — never a hang, never a silently partial result.
#ifndef TSFM_SERVER_DISTRIBUTED_LAKE_INDEX_H_
#define TSFM_SERVER_DISTRIBUTED_LAKE_INDEX_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "search/sharded_lake_index.h"
#include "server/protocol.h"
#include "server/remote_shard.h"
#include "util/status.h"

namespace tsfm::server {

/// \brief The lake coordinator over worker processes.
///
/// Construct with Connect. The query and mutation surface is
/// search::LakeCoordinator's, which returns Result: a dead or mismatched
/// worker is a recoverable error naming the shard, not a crash. Mutations
/// through the coordinator require a lake connected without pending
/// tombstones (a compacted or freshly built manifest): the handshake
/// cannot see which handles the workers tombstoned, so a churned connect
/// serves queries but refuses mutations. A mutation that fails after it
/// may have reached a worker refuses all later ones until a fresh Connect.
/// While the workers compact, coordinator queries wait. Movable, not
/// copyable.
class DistributedLakeIndex : public search::LakeCoordinator {
 public:
  /// \brief Opens the manifest, handshakes every worker, builds the global
  /// handle space.
  ///
  /// `worker_sockets[s]` must serve shard s of `manifest_path` (one socket
  /// per manifest shard file, same order). See RemoteShard::Connect for
  /// what the handshake rejects.
  static Result<DistributedLakeIndex> Connect(
      const std::string& manifest_path,
      const std::vector<std::string>& worker_sockets,
      const DistributedOptions& options = {});

  /// Fresh HEALTH from every worker, indexed by shard.
  Result<std::vector<ShardHealth>> Health() const;

  /// Worker STATS summed across shards (requests/batches/waits/latency).
  Result<ServerStats> AggregateStats() const;

 private:
  using LakeCoordinator::LakeCoordinator;

  const RemoteShard& remote(size_t s) const {
    return static_cast<const RemoteShard&>(shard(s));
  }
};

}  // namespace tsfm::server

#endif  // TSFM_SERVER_DISTRIBUTED_LAKE_INDEX_H_
