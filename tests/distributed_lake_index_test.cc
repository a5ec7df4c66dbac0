// DistributedLakeIndex end-to-end suite: a coordinator over real
// lake_shard_worker *processes* must return results bit-identical to the
// in-process ShardedLakeIndex over the same shard files (flat backend, so
// byte-for-byte), and every coordinator fault path — worker killed
// mid-serving, worker never started, stale socket path, mixed-version
// handshake, silent (wedged) worker — must end in a Status error naming
// the shard, never a hang or a crash.
//
// Workers are forked via ShardWorkerFleet. Forking must precede any
// thread creation in this process, so every test spawns its fleet before
// building thread pools, coordinators, or servers.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "search/sharded_lake_index.h"
#include "server/distributed_lake_index.h"
#include "server/lake_client.h"
#include "server/lake_server.h"
#include "server/protocol.h"
#include "server/shard_worker.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tsfm::server {
namespace {

using search::IndexOptions;
using search::ShardedLakeIndex;

constexpr size_t kDim = 16;

std::vector<float> RandomVec(size_t dim, Rng* rng) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng->Normal());
  return v;
}

struct Corpus {
  std::vector<std::string> ids;
  std::vector<std::vector<std::vector<float>>> tables;
  std::vector<std::vector<float>> join_queries;
  std::vector<std::vector<std::vector<float>>> union_queries;
};

Corpus MakeCorpus(size_t num_tables, uint64_t seed) {
  Corpus corpus;
  Rng rng(seed);
  for (size_t t = 0; t < num_tables; ++t) {
    corpus.ids.push_back("table_" + std::to_string(t));
    std::vector<std::vector<float>> cols(1 + t % 3);
    for (auto& col : cols) col = RandomVec(kDim, &rng);
    corpus.tables.push_back(std::move(cols));
  }
  for (size_t q = 0; q < 10; ++q) {
    corpus.join_queries.push_back(RandomVec(kDim, &rng));
    corpus.union_queries.push_back({RandomVec(kDim, &rng), RandomVec(kDim, &rng)});
  }
  return corpus;
}

ShardedLakeIndex BuildIndex(const Corpus& corpus, size_t shards) {
  ShardedLakeIndex index(kDim, shards, IndexOptions{});
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    index.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  return index;
}

std::string UniqueName(const char* prefix) {
  static std::atomic<int> counter{0};
  return std::string(prefix) + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

/// Saves a sharded lake and spawns a ShardWorkerFleet over it; the fleet
/// (one forked worker process per shard) cleans up on destruction.
class WorkerFleet {
 public:
  // Spawn before creating any threads in the test process.
  void Start(const ShardedLakeIndex& index) {
    manifest_path_ = testing::TempDir() + "/" + UniqueName("tsfm_dist_") +
                     ".laks";
    ASSERT_TRUE(index.Save(manifest_path_).ok());
    auto fleet = ShardWorkerFleet::Spawn(
        manifest_path_, "/tmp/" + UniqueName("tsfm_dw_"));
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    fleet_ = std::move(fleet).value();
  }

  // SIGKILL one worker (simulating a crash) so the test can assert against
  // a genuinely dead process, not a dying one.
  void KillWorker(size_t shard) { fleet_.KillWorker(shard); }

  const std::string& manifest_path() const { return manifest_path_; }
  const std::vector<std::string>& sockets() const { return fleet_.sockets(); }

 private:
  std::string manifest_path_;
  ShardWorkerFleet fleet_;  // empty until Start
};

// ------------------------------------------------------------------ parity

class DistributedParityTest : public testing::TestWithParam<size_t> {};

TEST_P(DistributedParityTest, BitIdenticalToInProcessShardedIndex) {
  const size_t workers = GetParam();
  Corpus corpus = MakeCorpus(60, 7 + workers);
  ShardedLakeIndex reference = BuildIndex(corpus, workers);
  WorkerFleet fleet;
  fleet.Start(reference);

  auto coordinator =
      DistributedLakeIndex::Connect(fleet.manifest_path(), fleet.sockets());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  const DistributedLakeIndex& dist = coordinator.value();
  EXPECT_EQ(dist.num_shards(), workers);
  EXPECT_EQ(dist.num_tables(), reference.num_tables());
  EXPECT_EQ(dist.num_columns(), reference.num_columns());

  // Handles and ids must line up exactly — they drive the tie-breaking.
  for (size_t h = 0; h < reference.num_tables(); ++h) {
    ASSERT_EQ(dist.table_id(h), reference.table_id(h));
  }

  for (size_t k : {size_t{1}, size_t{5}, size_t{100}}) {
    for (const auto& q : corpus.join_queries) {
      auto got = dist.QueryJoinable(q, k);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), reference.QueryJoinable(q, k));
    }
    for (const auto& q : corpus.union_queries) {
      auto got = dist.QueryUnionable(q, k);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), reference.QueryUnionable(q, k));
    }
  }

  // Degenerate shapes must match the in-process answers too.
  auto zero_k = dist.QueryJoinable(corpus.join_queries[0], 0);
  ASSERT_TRUE(zero_k.ok());
  EXPECT_EQ(zero_k.value(), reference.QueryJoinable(corpus.join_queries[0], 0));
  auto no_columns = dist.QueryUnionable({}, 5);
  ASSERT_TRUE(no_columns.ok());
  EXPECT_EQ(no_columns.value(), reference.QueryUnionable({}, 5));

  // Workers count the SHARD_QUERY traffic they served: every coordinator
  // query above scattered one frame per worker, so the fleet aggregate
  // must reflect real work, not zeros.
  auto stats = dist.AggregateStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.value().requests, 3u * corpus.join_queries.size() +
                                        3u * corpus.union_queries.size());
  auto health = dist.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  ASSERT_EQ(health.value().size(), workers);
  uint64_t total_tables = 0;
  for (const ShardHealth& h : health.value()) total_tables += h.num_tables;
  EXPECT_EQ(total_tables, reference.num_tables());
}

TEST_P(DistributedParityTest, BatchEntryPointsMatchWithAndWithoutPool) {
  const size_t workers = GetParam();
  Corpus corpus = MakeCorpus(50, 30 + workers);
  ShardedLakeIndex reference = BuildIndex(corpus, workers);
  WorkerFleet fleet;
  fleet.Start(reference);

  auto coordinator =
      DistributedLakeIndex::Connect(fleet.manifest_path(), fleet.sockets());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  ThreadPool pool(4);

  const size_t k = 7;
  auto expect_join = reference.QueryJoinableBatch(corpus.join_queries, k);
  auto expect_union = reference.QueryUnionableBatch(corpus.union_queries, k);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto join = coordinator.value().QueryJoinableBatch(corpus.join_queries, k, p);
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    EXPECT_EQ(join.value(), expect_join);
    auto got_union =
        coordinator.value().QueryUnionableBatch(corpus.union_queries, k, p);
    ASSERT_TRUE(got_union.ok()) << got_union.status().ToString();
    EXPECT_EQ(got_union.value(), expect_union);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, DistributedParityTest,
                         testing::Values(1, 2, 4));

// Summed SHARD_QUERY frames the workers have served (STATS counts them as
// requests; STATS itself is not counted).
uint64_t ShardFrames(const DistributedLakeIndex& coordinator) {
  auto stats = coordinator.AggregateStats();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return stats.ok() ? stats.value().requests : 0;
}

TEST(DistributedBatchTest, BatchScattersOneFramePerShard) {
  Corpus corpus = MakeCorpus(40, 91);
  ShardedLakeIndex reference = BuildIndex(corpus, 2);
  WorkerFleet fleet;
  fleet.Start(reference);
  auto coordinator =
      DistributedLakeIndex::Connect(fleet.manifest_path(), fleet.sockets());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  const DistributedLakeIndex& dist = coordinator.value();

  // Ten join queries reach each worker as one SHARD_QUERY, not ten.
  const uint64_t before = ShardFrames(dist);
  auto join = dist.QueryJoinableBatch(corpus.join_queries, 5);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_EQ(join.value(), reference.QueryJoinableBatch(corpus.join_queries, 5));
  EXPECT_EQ(ShardFrames(dist) - before, 2u);

  // So do ten two-column union queries.
  const uint64_t mid = ShardFrames(dist);
  auto got_union = dist.QueryUnionableBatch(corpus.union_queries, 5);
  ASSERT_TRUE(got_union.ok()) << got_union.status().ToString();
  EXPECT_EQ(got_union.value(),
            reference.QueryUnionableBatch(corpus.union_queries, 5));
  EXPECT_EQ(ShardFrames(dist) - mid, 2u);
}

TEST(DistributedBatchTest, BatchSplitsAtTheFrameBudgetAndStillMatches) {
  Corpus corpus = MakeCorpus(40, 92);
  ShardedLakeIndex reference = BuildIndex(corpus, 2);
  WorkerFleet fleet;
  fleet.Start(reference);
  // k = 5 asks each worker for 15 hits per column: a worst-case response
  // of 4 + 15 x 16 = 244 bytes per column, so a 1 KiB frame carries 4
  // columns and the 10-column join batch needs 3 frames per worker.
  DistributedOptions options;
  options.max_frame_bytes = 1024;
  auto coordinator = DistributedLakeIndex::Connect(
      fleet.manifest_path(), fleet.sockets(), options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  const DistributedLakeIndex& dist = coordinator.value();

  const uint64_t before = ShardFrames(dist);
  auto join = dist.QueryJoinableBatch(corpus.join_queries, 5);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_EQ(join.value(), reference.QueryJoinableBatch(corpus.join_queries, 5));
  EXPECT_EQ(ShardFrames(dist) - before, 2u * 3u);

  // The union batch's 20 columns split the same way, across query
  // boundaries, and still rank exactly like the in-process twin.
  auto got_union = dist.QueryUnionableBatch(corpus.union_queries, 5);
  ASSERT_TRUE(got_union.ok()) << got_union.status().ToString();
  EXPECT_EQ(got_union.value(),
            reference.QueryUnionableBatch(corpus.union_queries, 5));
}

// A LakeServer fronting the coordinator must be indistinguishable from one
// fronting the index in-process — same socket protocol, same results.
TEST(DistributedServerTest, PublicServerOverCoordinatorMatchesInProcess) {
  Corpus corpus = MakeCorpus(40, 99);
  ShardedLakeIndex reference = BuildIndex(corpus, 2);
  WorkerFleet fleet;
  fleet.Start(reference);

  auto coordinator =
      DistributedLakeIndex::Connect(fleet.manifest_path(), fleet.sockets());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  LakeServer lake_server(std::move(coordinator).value());
  const std::string socket_path = "/tmp/" + UniqueName("tsfm_dsrv_") + ".sock";
  ASSERT_TRUE(lake_server.Start(socket_path).ok());

  LakeClient client;
  ASSERT_TRUE(client.Connect(socket_path).ok());
  for (const auto& q : corpus.join_queries) {
    auto got = client.QueryJoinable(q, 5);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), reference.QueryJoinable(q, 5));
  }
  for (const auto& q : corpus.union_queries) {
    auto got = client.QueryUnionable(q, 5);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), reference.QueryUnionable(q, 5));
  }

  // A coordinator-backed server is not itself a shard: SHARD_QUERY is
  // rejected, not forwarded into a two-level scatter.
  auto hits = client.ShardQuery({corpus.join_queries[0]}, 5);
  ASSERT_FALSE(hits.ok());
  EXPECT_EQ(hits.status().code(), StatusCode::kUnimplemented);

  // HEALTH still answers (it describes the whole distributed lake).
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().num_tables, reference.num_tables());

  lake_server.Stop();
  ::unlink(socket_path.c_str());
}

// ------------------------------------------------------------ fault paths

TEST(DistributedFaultTest, NonFiniteTableIsRejectedBeforeAnyWorkerSeesIt) {
  Corpus corpus = MakeCorpus(30, 81);
  ShardedLakeIndex reference = BuildIndex(corpus, 2);
  WorkerFleet fleet;
  fleet.Start(reference);
  auto coordinator =
      DistributedLakeIndex::Connect(fleet.manifest_path(), fleet.sockets());
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  DistributedLakeIndex& dist = coordinator.value();

  Rng rng(82);
  std::vector<float> bad = RandomVec(kDim, &rng);
  bad[2] = std::numeric_limits<float>::quiet_NaN();
  Status rejected = dist.AddTable("poisoned", {RandomVec(kDim, &rng), bad});
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument)
      << rejected.ToString();
  EXPECT_NE(rejected.message().find("poisoned"), std::string::npos)
      << rejected.ToString();
  // A bad query gets the answer the in-process coordinator gives.
  EXPECT_EQ(dist.QueryJoinable(bad, 5).status().code(),
            StatusCode::kInvalidArgument);
  // So does a finite vector whose squared norm overflows float.
  bad[2] = 1e20f;
  rejected = dist.AddTable("huge", {bad});
  EXPECT_NE(rejected.message().find("squared norm"), std::string::npos)
      << rejected.ToString();
  EXPECT_EQ(dist.QueryJoinable(bad, 5).status().code(),
            StatusCode::kInvalidArgument);

  // Nothing reached a worker, so mutations are not fail-stopped: the next
  // valid one lands and ranks like the in-process twin's.
  const std::vector<float> fresh = RandomVec(kDim, &rng);
  ASSERT_TRUE(dist.AddTable("fresh", {fresh}).ok());
  reference.Seal();
  reference.AddTable("fresh", {fresh});
  EXPECT_EQ(dist.num_tables(), reference.num_tables());
  auto got = dist.QueryJoinable(fresh, 5);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), reference.QueryJoinable(fresh, 5));
}

TEST(DistributedFaultTest, KilledWorkerYieldsStatusNamingTheShardNotAHang) {
  Corpus corpus = MakeCorpus(45, 123);
  ShardedLakeIndex reference = BuildIndex(corpus, 3);
  WorkerFleet fleet;
  fleet.Start(reference);

  DistributedOptions options;
  options.shard_timeout_ms = 2000;
  auto coordinator = DistributedLakeIndex::Connect(fleet.manifest_path(),
                                                   fleet.sockets(), options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  // Warm the connection pool so the failure exercises the stale-connection
  // retry path, then crash shard 1 outright.
  auto warm = coordinator.value().QueryJoinable(corpus.join_queries[0], 5);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm.value(), reference.QueryJoinable(corpus.join_queries[0], 5));
  fleet.KillWorker(1);

  const auto start = std::chrono::steady_clock::now();
  auto got = coordinator.value().QueryJoinable(corpus.join_queries[1], 5);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("shard 1"), std::string::npos)
      << got.status().ToString();
  // Not a hang: the dead worker's socket refuses immediately, and even the
  // timeout bound (2 attempts x 2 s) is far below this ceiling.
  EXPECT_LT(elapsed, std::chrono::seconds(10));

  // Batches fail closed with the same shard-naming error.
  auto batch = coordinator.value().QueryJoinableBatch(corpus.join_queries, 5);
  ASSERT_FALSE(batch.ok());
  EXPECT_NE(batch.status().message().find("shard 1"), std::string::npos);
}

TEST(DistributedFaultTest, StoppedFleetNeverUnlinksASuccessorsSockets) {
  ShardedLakeIndex reference = BuildIndex(MakeCorpus(20, 81), 1);
  const std::string manifest =
      testing::TempDir() + "/" + UniqueName("tsfm_fleet_") + ".laks";
  ASSERT_TRUE(reference.Save(manifest).ok());
  const std::string prefix = "/tmp/" + UniqueName("tsfm_fleet_sock_");

  auto first = ShardWorkerFleet::Spawn(manifest, prefix);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ShardWorkerFleet fleet_a = std::move(first).value();
  fleet_a.StopAll();
  // Fleet B binds the very socket names fleet A used.
  auto fleet_b = ShardWorkerFleet::Spawn(manifest, prefix);
  ASSERT_TRUE(fleet_b.ok()) << fleet_b.status().ToString();
  // Assigning over the stopped fleet must not unlink B's sockets.
  fleet_a = ShardWorkerFleet();

  LakeClient client;
  Status connected = client.Connect(fleet_b.value().sockets()[0]);
  EXPECT_TRUE(connected.ok()) << connected.ToString();
  client.Close();
  fleet_b.value().StopAll();
  std::remove(manifest.c_str());
  std::remove((manifest + ".shard-0").c_str());
}

TEST(DistributedFaultTest, WorkerNeverStartedFailsTheHandshakeNamingTheShard) {
  Corpus corpus = MakeCorpus(30, 77);
  ShardedLakeIndex reference = BuildIndex(corpus, 2);
  WorkerFleet fleet;
  fleet.Start(reference);

  // Shard 1's socket path was never bound by anyone.
  std::vector<std::string> sockets = fleet.sockets();
  sockets[1] = "/tmp/" + UniqueName("tsfm_missing_") + ".sock";
  auto coordinator =
      DistributedLakeIndex::Connect(fleet.manifest_path(), sockets);
  ASSERT_FALSE(coordinator.ok());
  EXPECT_NE(coordinator.status().message().find("shard 1"), std::string::npos)
      << coordinator.status().ToString();
}

TEST(DistributedFaultTest, StaleSocketPathFailsTheHandshakeNamingTheShard) {
  Corpus corpus = MakeCorpus(30, 78);
  ShardedLakeIndex reference = BuildIndex(corpus, 2);
  WorkerFleet fleet;
  fleet.Start(reference);

  // A socket file left behind by a dead server: bound once, listener gone.
  const std::string stale = "/tmp/" + UniqueName("tsfm_stale_") + ".sock";
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, stale.c_str(), stale.size() + 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(fd);  // path remains on disk; nobody will ever accept

  std::vector<std::string> sockets = fleet.sockets();
  sockets[0] = stale;
  auto coordinator =
      DistributedLakeIndex::Connect(fleet.manifest_path(), sockets);
  ASSERT_FALSE(coordinator.ok());
  EXPECT_NE(coordinator.status().message().find("shard 0"), std::string::npos)
      << coordinator.status().ToString();
  ::unlink(stale.c_str());
}

// A minimal fake worker: accepts connections and answers every request
// with a fixed response payload (or silence), for handshake-rejection and
// timeout tests that need a live-but-wrong peer.
class FakeWorker {
 public:
  // `respond` maps the decoded request to a response; returning false means
  // "stay silent" (hold the connection open without answering).
  explicit FakeWorker(std::function<bool(const Request&, Response*)> respond)
      : respond_(std::move(respond)) {
    socket_path_ = "/tmp/" + UniqueName("tsfm_fake_") + ".sock";
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 8);
    thread_ = std::thread([this] { Loop(); });
  }

  ~FakeWorker() {
    stop_.store(true);
    thread_.join();
    ::close(listen_fd_);
    for (int fd : held_) ::close(fd);
    ::unlink(socket_path_.c_str());
  }

  const std::string& socket_path() const { return socket_path_; }

 private:
  void Loop() {
    while (!stop_.load()) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) continue;
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      // A client that connects but never writes must not wedge this loop
      // (and with it the test teardown's join).
      timeval read_timeout{/*tv_sec=*/0, /*tv_usec=*/500000};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &read_timeout,
                   sizeof(read_timeout));
      std::string payload;
      bool clean_eof = false;
      if (!ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &clean_eof).ok() ||
          clean_eof) {
        ::close(fd);
        continue;
      }
      std::istringstream in(payload);
      Request request;
      Response response;
      if (!DecodeRequest(in, &request).ok() || !respond_(request, &response)) {
        held_.push_back(fd);  // stay silent; close at teardown
        continue;
      }
      // Ignorable: the fake worker answers best-effort; a coordinator that
      // hung up early is exactly one of the failure modes under test.
      (void)WriteFrame(fd, SerializeResponse(response));
      ::close(fd);
    }
  }

  std::function<bool(const Request&, Response*)> respond_;
  std::string socket_path_;
  int listen_fd_ = -1;
  std::vector<int> held_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(DistributedFaultTest, MixedVersionHandshakeIsRejectedNamingTheShard) {
  Corpus corpus = MakeCorpus(30, 79);
  ShardedLakeIndex reference = BuildIndex(corpus, 1);
  WorkerFleet fleet;
  fleet.Start(reference);

  // The fake worker decodes fine but claims a future protocol version in
  // its HEALTH payload — the coordinator must refuse to serve over it.
  FakeWorker fake([&](const Request& request, Response* response) {
    response->op = request.op;
    response->health.protocol_version = kProtocolVersion + 1;
    response->health.backend = 0;
    response->health.metric = 0;
    response->health.dim = kDim;
    response->health.num_tables = reference.num_tables();
    response->health.num_columns = reference.num_columns();
    return true;
  });

  auto coordinator = DistributedLakeIndex::Connect(fleet.manifest_path(),
                                                   {fake.socket_path()});
  ASSERT_FALSE(coordinator.ok());
  EXPECT_EQ(coordinator.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(coordinator.status().message().find("shard 0"), std::string::npos);
  EXPECT_NE(coordinator.status().message().find("protocol version"),
            std::string::npos)
      << coordinator.status().ToString();
}

TEST(DistributedFaultTest, SilentWorkerTimesOutInsteadOfHangingForever) {
  Corpus corpus = MakeCorpus(30, 80);
  ShardedLakeIndex reference = BuildIndex(corpus, 1);
  WorkerFleet fleet;
  fleet.Start(reference);

  // Accepts, reads the request, never answers: only the per-shard timeout
  // can save the coordinator here.
  FakeWorker silent([](const Request&, Response*) { return false; });

  DistributedOptions options;
  options.shard_timeout_ms = 200;
  const auto start = std::chrono::steady_clock::now();
  auto coordinator = DistributedLakeIndex::Connect(
      fleet.manifest_path(), {silent.socket_path()}, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(coordinator.ok());
  EXPECT_NE(coordinator.status().message().find("shard 0"), std::string::npos);
  EXPECT_NE(coordinator.status().message().find("timed out"),
            std::string::npos)
      << coordinator.status().ToString();
  // Two attempts x 200 ms plus slack; anything near the 10 s mark would
  // mean the timeout is not actually bounding the round trip.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

}  // namespace
}  // namespace tsfm::server
