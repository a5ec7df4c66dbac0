#include "server/shard_worker.h"

#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

#include "search/lake_manifest.h"
#include "search/sharded_lake_index.h"
#include "server/net_util.h"

namespace tsfm::server {

Result<ShardWorker> ShardWorker::Load(const std::string& index_path,
                                      const ServerOptions& options) {
  auto index = search::ShardedLakeIndex::Load(index_path);
  if (!index.ok()) return index.status();
  return ShardWorker(
      std::make_unique<LakeServer>(std::move(index).value(), options));
}

Status ShardWorker::Start(const std::string& socket_path) {
  return server_->Start(socket_path);
}

void ShardWorker::Stop() { server_->Stop(); }

namespace {

// Child-side SIGTERM latch. sig_atomic_t + a plain handler: the child's
// serving loop polls it, everything non-trivial happens outside the
// handler.
volatile std::sig_atomic_t g_worker_stop = 0;

void HandleWorkerSignal(int) { g_worker_stop = 1; }

// Runs the worker in the forked child; never returns.
[[noreturn]] void RunWorkerChild(const std::string& index_path,
                                 const std::string& socket_path,
                                 const ServerOptions& options) {
  std::signal(SIGTERM, HandleWorkerSignal);
  // Ctrl-C signals the whole foreground process group. The parent owns
  // the shutdown order (drain its coordinator first, SIGTERM workers
  // after); a worker that reacted to the group SIGINT would vanish
  // mid-drain and turn a graceful stop into shard errors.
  std::signal(SIGINT, SIG_IGN);
  auto worker = ShardWorker::Load(index_path, options);
  if (!worker.ok()) _exit(1);
  if (!worker.value().Start(socket_path).ok()) _exit(1);
  while (g_worker_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  worker.value().Stop();
  _exit(0);
}

}  // namespace

Result<pid_t> SpawnShardWorkerProcess(const std::string& index_path,
                                      const std::string& socket_path,
                                      const ServerOptions& options) {
  pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) RunWorkerChild(index_path, socket_path, options);
  return pid;
}

Status WaitForWorker(const std::string& socket_path, int timeout_ms,
                     pid_t pid) {
  sockaddr_un addr;
  if (Status s = internal::FillUnixSockaddr(socket_path, &addr); !s.ok()) {
    return s;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd >= 0) {
      int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      ::close(fd);
      if (rc == 0) return Status::OK();
    }
    if (pid >= 0) {
      // A child that died during startup (bad shard file, bind failure)
      // will never bind this socket; report that now instead of burning
      // the whole timeout against a path that cannot appear. WNOWAIT
      // leaves the zombie in place — StopShardWorkerProcess still owns
      // the reap, so the pid cannot be recycled under the caller.
      siginfo_t info;
      info.si_pid = 0;
      if (::waitid(P_PID, static_cast<id_t>(pid), &info,
                   WEXITED | WNOHANG | WNOWAIT) == 0 &&
          info.si_pid == pid) {
        return Status::IoError("worker for " + socket_path +
                               " exited during startup (status " +
                               std::to_string(info.si_status) + ")");
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::IoError("worker on " + socket_path +
                             " did not start accepting within " +
                             std::to_string(timeout_ms) + " ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

Result<ShardWorkerFleet> ShardWorkerFleet::Spawn(
    const std::string& manifest_path, const std::string& socket_prefix,
    const ServerOptions& options, int startup_timeout_ms) {
  auto manifest = search::LoadLakeManifest(manifest_path);
  if (!manifest.ok()) return manifest.status();
  const auto dir = std::filesystem::path(manifest_path).parent_path();

  // Fork the whole fleet first (before any failure can have spawned
  // threads in this process), then run the startup barrier.
  ShardWorkerFleet fleet;
  for (size_t s = 0; s < manifest.value().num_shards(); ++s) {
    const std::string shard_file =
        (dir / manifest.value().shard_files[s]).string();
    fleet.sockets_.push_back(socket_prefix + ".shard-" + std::to_string(s));
    // Sockets and shard files share the ".shard-s" suffix convention; a
    // prefix equal to the manifest path would make the worker's socket
    // bind unlink the very shard file it is about to serve.
    if (fleet.sockets_.back() == shard_file) {
      return Status::InvalidArgument(
          "socket prefix collides with shard file " + shard_file +
          "; pick a prefix that is not the manifest path");
    }
    auto pid = SpawnShardWorkerProcess(shard_file, fleet.sockets_.back(),
                                       options);
    if (!pid.ok()) {
      return Status(pid.status().code(), "spawning worker for shard " +
                                             std::to_string(s) + ": " +
                                             pid.status().message());
    }
    fleet.pids_.push_back(pid.value());
  }
  for (size_t s = 0; s < fleet.sockets_.size(); ++s) {
    if (Status status = WaitForWorker(fleet.sockets_[s], startup_timeout_ms,
                                      fleet.pids_[s]);
        !status.ok()) {
      return Status(status.code(), "shard " + std::to_string(s) + ": " +
                                       status.message());
    }
  }
  return fleet;
}

void ShardWorkerFleet::KillWorker(size_t shard) {
  if (pids_[shard] <= 0) return;
  ::kill(pids_[shard], SIGKILL);
  int wstatus = 0;
  ::waitpid(pids_[shard], &wstatus, 0);
  pids_[shard] = -1;
}

void ShardWorkerFleet::StopAll() {
  for (pid_t pid : pids_) {
    // Ignorable: StopAll is the tear-everything-down path (tests, fatal
    // exits); a worker that already died or refuses the handshake is
    // SIGKILLed by StopShardWorkerProcess itself, so there is nothing
    // more to do with its Status here.
    if (pid > 0) (void)StopShardWorkerProcess(pid);
  }
  // Unlink once and forget the paths: a later StopAll (the destructor, or
  // a move-assignment over this stopped fleet) must not unlink sockets a
  // newer fleet on the same prefix has bound since.
  for (const std::string& socket_path : sockets_) {
    ::unlink(socket_path.c_str());
  }
  sockets_.clear();
  pids_.clear();
}

Status StopShardWorkerProcess(pid_t pid, int timeout_ms) {
  if (pid <= 0) return Status::InvalidArgument("bad worker pid");
  ::kill(pid, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int wstatus = 0;
  for (;;) {
    pid_t reaped = ::waitpid(pid, &wstatus, WNOHANG);
    if (reaped == pid) break;
    if (reaped < 0) {
      // Already reaped elsewhere (or never ours): nothing left to stop.
      return Status::OK();
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      // A worker that ignores SIGTERM past the deadline is wedged; a
      // blocking reap after SIGKILL cannot hang.
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &wstatus, 0);
      return Status::Internal("worker " + std::to_string(pid) +
                              " ignored SIGTERM and was killed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) return Status::OK();
  if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGTERM) return Status::OK();
  return Status::Internal("worker " + std::to_string(pid) +
                          " exited abnormally (status " +
                          std::to_string(wstatus) + ")");
}

}  // namespace tsfm::server
