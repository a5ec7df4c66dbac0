// LakeServer end-to-end suite: concurrent clients must get results
// bit-identical to direct ShardedLakeIndex calls, graceful shutdown must
// drain every accepted request, and every fault-injection case (truncated /
// oversized / garbage frames, wrong-dim queries, mid-request disconnects)
// must end in a Status error response or a clean close — never a crash,
// hang, or leaked thread.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "search/sharded_lake_index.h"
#include "search/stream_io.h"
#include "server/lake_client.h"
#include "server/lake_server.h"
#include "util/random.h"

namespace tsfm::server {
namespace {

using search::IndexOptions;
using search::ShardedLakeIndex;

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

Corpus MakeCorpus(size_t num_tables, size_t dim, uint64_t seed) {
  Corpus corpus;
  Rng rng(seed);
  for (size_t t = 0; t < num_tables; ++t) {
    corpus.ids.push_back("table_" + std::to_string(t));
    std::vector<std::vector<float>> cols(1 + t % 3);
    for (auto& col : cols) col = RandomVec(dim, &rng);
    corpus.tables.push_back(std::move(cols));
  }
  for (size_t q = 0; q < 12; ++q) {
    corpus.join_queries.push_back(RandomVec(dim, &rng));
    corpus.union_queries.push_back({RandomVec(dim, &rng), RandomVec(dim, &rng)});
  }
  return corpus;
}

ShardedLakeIndex BuildIndex(const Corpus& corpus, size_t dim, size_t shards) {
  ShardedLakeIndex index(dim, shards, IndexOptions{});
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    index.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  return index;
}

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/tsfm_lake_server_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// Server + identical reference index over the same corpus; flat backend, so
// served results must be bit-identical to direct calls.
class LakeServerTest : public testing::Test {
 protected:
  static constexpr size_t kDim = 16;
  static constexpr size_t kShards = 3;

  void StartServer(ServerOptions options = {}) {
    corpus_ = MakeCorpus(60, kDim, 7);
    reference_ = std::make_unique<ShardedLakeIndex>(
        BuildIndex(corpus_, kDim, kShards));
    server_ = std::make_unique<LakeServer>(BuildIndex(corpus_, kDim, kShards),
                                           options);
    socket_path_ = UniqueSocketPath();
    ASSERT_TRUE(server_->Start(socket_path_).ok());
  }

  void TearDown() override {
    if (server_) server_->Stop();
    ::unlink(socket_path_.c_str());
  }

  // Opens a raw connection for hand-crafted (mal)formed traffic.
  int RawConnect() {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  }

  // The server must still answer correctly — the liveness probe every
  // fault-injection test ends with.
  void ExpectServerStillServes() {
    LakeClient client;
    ASSERT_TRUE(client.Connect(socket_path_).ok());
    auto got = client.QueryJoinable(corpus_.join_queries[0], 5);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(),
              reference_->QueryJoinable(corpus_.join_queries[0], 5));
  }

  Corpus corpus_;
  std::unique_ptr<ShardedLakeIndex> reference_;
  std::unique_ptr<LakeServer> server_;
  std::string socket_path_;
};

// ------------------------------------------------------------------ parity

TEST_F(LakeServerTest, ServesJoinAndUnionIdenticallyToDirectCalls) {
  StartServer();
  LakeClient client;
  ASSERT_TRUE(client.Connect(socket_path_).ok());
  for (size_t k : {size_t{1}, size_t{5}, size_t{100}}) {
    for (const auto& q : corpus_.join_queries) {
      auto got = client.QueryJoinable(q, k);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), reference_->QueryJoinable(q, k));
    }
    for (const auto& q : corpus_.union_queries) {
      auto got = client.QueryUnionable(q, k);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), reference_->QueryUnionable(q, k));
    }
  }
}

TEST_F(LakeServerTest, ZeroKAndZeroColumnQueriesMatchDirectCalls) {
  StartServer();
  LakeClient client;
  ASSERT_TRUE(client.Connect(socket_path_).ok());

  auto zero_k = client.QueryJoinable(corpus_.join_queries[0], 0);
  ASSERT_TRUE(zero_k.ok());
  EXPECT_EQ(zero_k.value(), reference_->QueryJoinable(corpus_.join_queries[0], 0));
  EXPECT_TRUE(zero_k.value().empty());

  auto zero_cols = client.QueryUnionable({}, 5);
  ASSERT_TRUE(zero_cols.ok());
  EXPECT_EQ(zero_cols.value(), reference_->QueryUnionable({}, 5));
}

TEST_F(LakeServerTest, ConcurrentClientsGetBitIdenticalResults) {
  ServerOptions options;
  options.io_threads = 10;  // one handler per client; none queue behind another
  StartServer(options);
  constexpr size_t kClients = 10;
  constexpr size_t kRounds = 15;

  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LakeClient client;
      if (!client.Connect(socket_path_).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t r = 0; r < kRounds; ++r) {
        // Interleave ops and stagger queries/ks so concurrent in-flight
        // batches mix shapes.
        size_t k = 1 + (c + r) % 7;
        const auto& jq = corpus_.join_queries[(c + r) % corpus_.join_queries.size()];
        const auto& uq =
            corpus_.union_queries[(c + 2 * r) % corpus_.union_queries.size()];
        auto join = client.QueryJoinable(jq, k);
        auto join_union = client.QueryUnionable(uq, k);
        if (!join.ok() || join.value() != reference_->QueryJoinable(jq, k) ||
            !join_union.ok() ||
            join_union.value() != reference_->QueryUnionable(uq, k)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);

  LakeClient stats_client;
  ASSERT_TRUE(stats_client.Connect(socket_path_).ok());
  auto stats = stats_client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().requests, kClients * kRounds * 2);
  EXPECT_GE(stats.value().batches, 1u);
  EXPECT_LE(stats.value().batches, stats.value().requests);
  EXPECT_GE(stats.value().max_batch, 1u);
  EXPECT_GE(stats.value().total_latency_ms, 0.0);
  EXPECT_GE(stats.value().total_queue_wait_ms, 0.0);
}

// ---------------------------------------------------------------- shutdown

TEST_F(LakeServerTest, GracefulShutdownDrainsWithoutDroppingAcceptedRequests) {
  ServerOptions options;
  options.io_threads = 8;
  StartServer(options);
  constexpr size_t kClients = 8;

  // Clients hammer queries until the server goes away. Every response that
  // does arrive must be correct; after the first transport error the
  // connection is dead and the thread exits. A request the server accepted
  // (read off the wire) but then dropped would surface as a wrong/missing
  // response before the close, failing the parity check.
  std::atomic<size_t> failures{0};
  std::atomic<size_t> answered{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LakeClient client;
      if (!client.Connect(socket_path_).ok()) return;
      while (!go.load()) std::this_thread::yield();
      for (size_t r = 0;; ++r) {
        size_t k = 1 + r % 5;
        const auto& jq = corpus_.join_queries[(c + r) % corpus_.join_queries.size()];
        auto got = client.QueryJoinable(jq, k);
        if (!got.ok()) break;  // server closed while draining: clean end
        answered.fetch_add(1);
        if (got.value() != reference_->QueryJoinable(jq, k)) {
          failures.fetch_add(1);
          break;
        }
      }
    });
  }
  go.store(true);
  // Let the clients get some requests in flight, then pull the plug.
  while (answered.load() < kClients * 3) std::this_thread::yield();
  server_->Stop();
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(answered.load(), kClients * 3);
  EXPECT_FALSE(server_->running());

  // New connections must be refused once stopped.
  LakeClient late;
  EXPECT_FALSE(late.Connect(socket_path_).ok());
}

TEST_F(LakeServerTest, StopIsIdempotentAndSecondStartIsRejected) {
  StartServer();
  server_->Stop();
  server_->Stop();
  EXPECT_FALSE(server_->Start(UniqueSocketPath()).ok());
}

// --------------------------------------------------------- fault injection

TEST_F(LakeServerTest, TruncatedFramePayloadGetsCleanCloseNotCrash) {
  StartServer();
  int fd = RawConnect();
  uint32_t claimed = 100;
  ASSERT_EQ(::send(fd, &claimed, sizeof(claimed), 0),
            static_cast<ssize_t>(sizeof(claimed)));
  ASSERT_EQ(::send(fd, "short", 5, 0), 5);  // 5 of the promised 100 bytes
  ::close(fd);
  ExpectServerStillServes();
}

TEST_F(LakeServerTest, TruncatedLengthPrefixGetsCleanCloseNotCrash) {
  StartServer();
  int fd = RawConnect();
  ASSERT_EQ(::send(fd, "\x02", 1, 0), 1);  // 1 of the 4 prefix bytes
  ::close(fd);
  ExpectServerStillServes();
}

TEST_F(LakeServerTest, OversizedLengthPrefixGetsStatusErrorResponse) {
  ServerOptions options;
  options.max_frame_bytes = 4096;
  StartServer(options);
  int fd = RawConnect();
  uint32_t huge = 1u << 30;
  ASSERT_EQ(::send(fd, &huge, sizeof(huge), 0),
            static_cast<ssize_t>(sizeof(huge)));

  std::string payload;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  std::istringstream in(payload);
  Response response;
  ASSERT_TRUE(DecodeResponse(in, &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOutOfRange);
  EXPECT_FALSE(response.message.empty());

  // The stream cannot be resynced after a bad prefix: server closes next.
  ASSERT_TRUE(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &clean_eof).ok());
  EXPECT_TRUE(clean_eof);
  ::close(fd);
  ExpectServerStillServes();
}

TEST_F(LakeServerTest, GarbageOpcodeGetsParseErrorAndConnectionSurvives) {
  StartServer();
  int fd = RawConnect();
  std::string garbage;
  garbage.push_back(static_cast<char>(kProtocolVersion));
  garbage.push_back(static_cast<char>(99));  // no such opcode
  ASSERT_TRUE(WriteFrame(fd, garbage).ok());

  std::string payload;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  std::istringstream in(payload);
  Response response;
  ASSERT_TRUE(DecodeResponse(in, &response).ok());
  EXPECT_EQ(response.status, StatusCode::kParseError);

  // Frame boundaries survived, so the same connection still serves.
  Request good;
  good.op = Opcode::kJoin;
  good.k = 5;
  good.columns = {corpus_.join_queries[0]};
  ASSERT_TRUE(WriteFrame(fd, SerializeRequest(good)).ok());
  ASSERT_TRUE(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  std::istringstream in2(payload);
  ASSERT_TRUE(DecodeResponse(in2, &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.ids, reference_->QueryJoinable(corpus_.join_queries[0], 5));
  ::close(fd);
}

TEST_F(LakeServerTest, HostileKInAValidFrameDoesNotKillTheServer) {
  StartServer();
  // ~80 wire bytes that pass every shape check but ask for 4 billion
  // results; an unclamped k would drive a multi-hundred-GB reserve in the
  // ranking stack and bad_alloc the dispatcher.
  int fd = RawConnect();
  Request greedy;
  greedy.op = Opcode::kJoin;
  greedy.k = 0xFFFFFFFFu;
  greedy.columns = {corpus_.join_queries[0]};
  ASSERT_TRUE(WriteFrame(fd, SerializeRequest(greedy)).ok());
  std::string payload;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  std::istringstream in(payload);
  Response response;
  ASSERT_TRUE(DecodeResponse(in, &response).ok());
  EXPECT_EQ(response.status, StatusCode::kOk);
  // Clamped k returns every table ranked — identical to any k >= corpus.
  EXPECT_EQ(response.ids,
            reference_->QueryJoinable(corpus_.join_queries[0],
                                      corpus_.tables.size()));
  ::close(fd);
  ExpectServerStillServes();
}

TEST_F(LakeServerTest, TrailingBytesAfterValidRequestGetParseError) {
  StartServer();
  int fd = RawConnect();
  // Two messages smuggled into one frame must not be half-accepted: the
  // server would answer once and the client's accounting would desync.
  Request req;
  req.op = Opcode::kJoin;
  req.k = 5;
  req.columns = {corpus_.join_queries[0]};
  std::string doubled = SerializeRequest(req) + SerializeRequest(req);
  ASSERT_TRUE(WriteFrame(fd, doubled).ok());
  std::string payload;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  std::istringstream in(payload);
  Response response;
  ASSERT_TRUE(DecodeResponse(in, &response).ok());
  EXPECT_EQ(response.status, StatusCode::kParseError);
  ::close(fd);
  ExpectServerStillServes();
}

TEST_F(LakeServerTest, WrongVersionByteGetsParseError) {
  StartServer();
  int fd = RawConnect();
  std::string frame;
  frame.push_back(static_cast<char>(kProtocolVersion + 1));
  frame.push_back(static_cast<char>(Opcode::kStats));
  ASSERT_TRUE(WriteFrame(fd, frame).ok());
  std::string payload;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  std::istringstream in(payload);
  Response response;
  ASSERT_TRUE(DecodeResponse(in, &response).ok());
  EXPECT_EQ(response.status, StatusCode::kParseError);
  ::close(fd);
  ExpectServerStillServes();
}

TEST_F(LakeServerTest, WrongDimQueryGetsInvalidArgumentAndClientSurvives) {
  StartServer();
  LakeClient client;
  ASSERT_TRUE(client.Connect(socket_path_).ok());
  auto bad = client.QueryJoinable(std::vector<float>(kDim + 3, 0.5f), 5);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // Server errors don't burn the connection; the same client recovers.
  auto good = client.QueryJoinable(corpus_.join_queries[0], 5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), reference_->QueryJoinable(corpus_.join_queries[0], 5));
}

TEST_F(LakeServerTest, NonFiniteVectorsGetInvalidArgumentAndClientSurvives) {
  StartServer();
  LakeClient client;
  ASSERT_TRUE(client.Connect(socket_path_).ok());
  const std::vector<float>& good = corpus_.join_queries[0];
  for (float poison : {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity()}) {
    std::vector<float> bad = good;
    bad[kDim / 2] = poison;
    const std::string what = std::isnan(poison) ? "nan" : "+inf";
    auto expect_rejected = [&](const Status& status, const char* op) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << op << " " << what << ": " << status.ToString();
      EXPECT_NE(status.message().find(what), std::string::npos)
          << status.ToString();
    };
    expect_rejected(client.AddTable("poisoned", {good, bad}), "ADD_TABLE");
    expect_rejected(client.QueryJoinable(bad, 5).status(), "JOIN");
    expect_rejected(client.QueryUnionable({good, bad}, 5).status(), "UNION");
    expect_rejected(client.ShardQuery({good, bad}, 5).status(), "SHARD_QUERY");
  }
  // Errors don't burn the connection, and the rejected table never landed.
  auto tables = client.ShardTables();
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  EXPECT_EQ(tables.value().size(), corpus_.tables.size());
  auto got = client.QueryJoinable(good, 5);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), reference_->QueryJoinable(good, 5));
}

TEST_F(LakeServerTest, JoinWithWrongColumnCountGetsInvalidArgument) {
  StartServer();
  int fd = RawConnect();
  Request bad;
  bad.op = Opcode::kJoin;
  bad.k = 5;
  bad.columns = {corpus_.join_queries[0], corpus_.join_queries[1]};
  ASSERT_TRUE(WriteFrame(fd, SerializeRequest(bad)).ok());
  std::string payload;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  std::istringstream in(payload);
  Response response;
  ASSERT_TRUE(DecodeResponse(in, &response).ok());
  EXPECT_EQ(response.status, StatusCode::kInvalidArgument);
  ::close(fd);
  ExpectServerStillServes();
}

TEST_F(LakeServerTest, MidRequestDisconnectDuringManyConnectionsNeverWedges) {
  StartServer();
  // A burst of clients that connect, send garbage or partial frames, and
  // vanish, racing real traffic. The server must keep serving throughout.
  std::vector<std::thread> chaos;
  for (int i = 0; i < 6; ++i) {
    chaos.emplace_back([&, i] {
      for (int r = 0; r < 10; ++r) {
        int fd = RawConnect();
        switch ((i + r) % 3) {
          case 0: {  // half a length prefix
            ::send(fd, "\x01\x02", 2, MSG_NOSIGNAL);
            break;
          }
          case 1: {  // prefix promising bytes that never come
            uint32_t claimed = 64;
            ::send(fd, &claimed, sizeof(claimed), MSG_NOSIGNAL);
            break;
          }
          case 2: {  // valid request, gone before reading the response
            Request req;
            req.op = Opcode::kJoin;
            req.k = 3;
            req.columns = {corpus_.join_queries[0]};
            // Ignorable: this client is simulating a peer that vanishes
            // mid-conversation; whether the final write even lands is part
            // of the chaos being injected.
            (void)WriteFrame(fd, SerializeRequest(req));
            break;
          }
        }
        ::close(fd);
      }
    });
  }
  for (int r = 0; r < 5; ++r) ExpectServerStillServes();
  for (auto& t : chaos) t.join();
  ExpectServerStillServes();
}

}  // namespace
}  // namespace tsfm::server
