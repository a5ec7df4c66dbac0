// One shard of a distributed lake, served as its own process.
//
// A shard worker is just a LakeServer over the one LakeIndex ("LAK2")
// shard file it loaded — it speaks the full wire protocol, so a worker
// answers the coordinator's SHARD_QUERY/HEALTH/SHARD_TABLES scatter frames
// *and* ordinary join/union queries for direct debugging with lake_search.
// Queries carry precomputed embeddings on the wire, so workers never
// re-embed anything.
//
// Two ways to run one:
//   - in this process: ShardWorker::Load(...).Start(socket) — what the
//     lake_shard_worker example binary does;
//   - as a child process: SpawnShardWorkerProcess forks, runs the worker
//     in the child until SIGTERM, and returns the pid to the parent. Used
//     by lake_server's --distributed mode and the fault-injection tests.
#ifndef TSFM_SERVER_SHARD_WORKER_H_
#define TSFM_SERVER_SHARD_WORKER_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "server/lake_server.h"
#include "util/status.h"

namespace tsfm::server {

/// \brief An in-process shard worker: one loaded shard behind a LakeServer.
///
/// Movable, not copyable. Stop() (or the destructor) drains gracefully.
class ShardWorker {
 public:
  /// Loads `index_path` — normally one "LAK2" shard file of a distributed
  /// lake; a "LAKS" manifest or legacy "LAKE" file also works, making any
  /// saved index servable as a single worker.
  static Result<ShardWorker> Load(const std::string& index_path,
                                  const ServerOptions& options = {});

  /// Binds `socket_path` and starts serving. One Start per worker.
  Status Start(const std::string& socket_path);

  /// Graceful drain; idempotent.
  void Stop();

  const LakeServer& server() const { return *server_; }

 private:
  explicit ShardWorker(std::unique_ptr<LakeServer> server)
      : server_(std::move(server)) {}

  std::unique_ptr<LakeServer> server_;
};

/// \brief Forks a child process that serves `index_path` on `socket_path`.
///
/// The child stops only on SIGTERM (SIGINT is ignored: a terminal Ctrl-C
/// signals the whole foreground process group, and workers self-draining
/// concurrently with the parent's coordinator drain would turn a graceful
/// shutdown into shard errors — the parent SIGTERMs them when *it* is
/// done). It loads the shard, serves until signalled, drains, and exits
/// (status 0 on a clean drain, 1 when the load or bind fails — the parent
/// observes that through waitpid, or immediately through WaitForWorker's
/// pid check). The parent gets the child pid and must eventually reap it
/// with StopShardWorkerProcess.
///
/// fork(2) composes badly with live threads: call this before spawning
/// thread pools / coordinators in the parent (the child only runs
/// worker code, so the parent's later threads are unaffected).
Result<pid_t> SpawnShardWorkerProcess(const std::string& index_path,
                                      const std::string& socket_path,
                                      const ServerOptions& options = {});

/// \brief Polls `socket_path` until a connect succeeds (the worker is
/// accepting) or `timeout_ms` elapses — the startup barrier between
/// spawning workers and handing their sockets to a coordinator.
///
/// With a non-negative `pid`, also watches that child: a worker that dies
/// during startup (bad shard file) fails immediately with its exit status
/// instead of stalling out the whole timeout against a socket that will
/// never appear.
Status WaitForWorker(const std::string& socket_path, int timeout_ms,
                     pid_t pid = -1);

/// \brief SIGTERMs `pid`, waits up to `timeout_ms` for a clean exit, then
/// escalates to SIGKILL. Always reaps. OK when the child exited cleanly
/// (by this signal or earlier); an error describes a nonzero exit or the
/// escalation.
Status StopShardWorkerProcess(pid_t pid, int timeout_ms = 5000);

/// \brief One worker process per shard of a saved lake, managed together.
///
/// The spawn → wait-all → stop-all choreography every distributed caller
/// needs (lake_server --distributed, BM_DistributedQPS, the test fixture),
/// in one place: Spawn forks worker s to serve shard s's file on
/// "<socket_prefix>.shard-s", then waits for every socket to accept
/// (observing early child deaths); any failure stops the already-spawned
/// workers and returns an error naming the shard. StopAll (also run by the
/// destructor) SIGTERMs, reaps, and unlinks every socket. Movable, not
/// copyable. Spawn before creating threads in the calling process.
class ShardWorkerFleet {
 public:
  /// An empty fleet (no workers) — the state Spawn fills in, and a valid
  /// placeholder for deferred initialization.
  ShardWorkerFleet() = default;

  /// `socket_prefix` must not be the manifest path itself: sockets are
  /// "<prefix>.shard-s", the same naming shard *files* use next to the
  /// manifest, and binding a socket over a shard file would destroy it
  /// (Spawn rejects the collision).
  static Result<ShardWorkerFleet> Spawn(const std::string& manifest_path,
                                        const std::string& socket_prefix,
                                        const ServerOptions& options = {},
                                        int startup_timeout_ms = 10000);

  // Moves must leave the source demonstrably empty (a moved-from vector is
  // only *usually* empty) — two fleets believing they own one pid would
  // double-signal it — and move-assignment stops the target's old fleet
  // first.
  ShardWorkerFleet(ShardWorkerFleet&& other) noexcept
      : sockets_(std::move(other.sockets_)), pids_(std::move(other.pids_)) {
    other.sockets_.clear();
    other.pids_.clear();
  }
  ShardWorkerFleet& operator=(ShardWorkerFleet&& other) noexcept {
    if (this != &other) {
      StopAll();
      sockets_ = std::move(other.sockets_);
      pids_ = std::move(other.pids_);
      other.sockets_.clear();
      other.pids_.clear();
    }
    return *this;
  }
  ~ShardWorkerFleet() { StopAll(); }

  /// Worker sockets in shard order — what DistributedLakeIndex::Connect
  /// takes.
  const std::vector<std::string>& sockets() const { return sockets_; }

  size_t num_workers() const { return sockets_.size(); }
  pid_t pid(size_t shard) const { return pids_[shard]; }

  /// Fault injection: SIGKILL worker `shard` and reap it (simulates a
  /// crashed worker; StopAll skips it afterwards).
  void KillWorker(size_t shard);

  /// Stops every still-running worker, unlinks the sockets and leaves the
  /// fleet empty. Idempotent.
  void StopAll();

 private:
  std::vector<std::string> sockets_;
  std::vector<pid_t> pids_;
};

}  // namespace tsfm::server

#endif  // TSFM_SERVER_SHARD_WORKER_H_
