// QueryBatcher dispatch semantics: group formation (per-key fill to
// max_batch over the whole queue), concurrent group execution (one slow
// group must not head-of-line-block the groups behind it), and the Stop()
// drain guarantee for groups already handed to the query pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/backend.h"
#include "server/batcher.h"
#include "server/protocol.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace tsfm::server {
namespace {

using namespace std::chrono_literals;

std::vector<std::vector<float>> OneColumn() { return {{1.0f, 2.0f, 3.0f}}; }

/// LakeBackend stub that records the size of every batch call it receives
/// and can gate calls with a chosen `k` on a latch, so tests can hold one
/// group inside the backend while asserting what happens to the others.
/// All waits are bounded (10s) so a dispatcher bug fails the test instead
/// of hanging it.
class StubBackend final : public LakeBackend {
 public:
  size_t dim() const override { return 3; }
  size_t num_tables() const override { return 0; }
  size_t num_columns() const override { return 0; }
  const char* kind() const override { return "stub"; }

  Result<std::vector<std::vector<std::string>>> QueryJoinableBatch(
      const std::vector<std::vector<float>>& queries, size_t k,
      ThreadPool* pool) const override {
    (void)pool;
    return Answer("join", queries.size(), k);
  }

  Result<std::vector<std::vector<std::string>>> QueryUnionableBatch(
      const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
      ThreadPool* pool) const override {
    (void)pool;
    return Answer("union", queries.size(), k);
  }

  Result<std::vector<std::vector<ShardHit>>> ShardQuery(
      const std::vector<std::vector<float>>&, size_t,
      ThreadPool*) const override {
    return Status::Unimplemented("stub");
  }
  Result<std::vector<std::string>> TableIds() const override {
    return std::vector<std::string>{};
  }
  ShardHealth Health() const override { return {}; }
  Status AddTable(const std::string&,
                  const std::vector<std::vector<float>>&) override {
    return Status::Unimplemented("stub");
  }
  Status RemoveTable(const std::string&) override {
    return Status::Unimplemented("stub");
  }
  Status Compact(ThreadPool*) override { return Status::Unimplemented("stub"); }
  ChurnCounters Churn() const override { return {}; }

  /// Calls with this k block inside the backend until ReleaseGated().
  void GateOn(size_t k) {
    std::lock_guard<std::mutex> lock(mu_);
    gated_k_ = k;
  }

  /// Blocks until a gated call has entered the backend.
  bool WaitForGatedEntry() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, 10s, [this] { return gated_entered_; });
  }

  void ReleaseGated() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  bool gated_finished() const {
    std::lock_guard<std::mutex> lock(mu_);
    return gated_finished_;
  }

  /// Batch sizes seen so far, sorted ascending for stable comparison.
  std::vector<size_t> batch_sizes() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<size_t> sizes = batch_sizes_;
    std::sort(sizes.begin(), sizes.end());
    return sizes;
  }

 private:
  Result<std::vector<std::vector<std::string>>> Answer(const std::string& op,
                                                       size_t n,
                                                       size_t k) const {
    {
      std::unique_lock<std::mutex> lock(mu_);
      batch_sizes_.push_back(n);
      if (k == gated_k_) {
        gated_entered_ = true;
        cv_.notify_all();
        cv_.wait_for(lock, 10s, [this] { return released_; });
      }
    }
    std::vector<std::vector<std::string>> ids(n);
    for (auto& list : ids) list = {op + "_k" + std::to_string(k)};
    if (k != SIZE_MAX && k == gated_k_) {
      std::lock_guard<std::mutex> lock(mu_);
      gated_finished_ = true;
    }
    return ids;
  }

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  size_t gated_k_ = SIZE_MAX;
  mutable bool gated_entered_ = false;
  mutable bool released_ = false;
  mutable bool gated_finished_ = false;
  mutable std::vector<size_t> batch_sizes_;
};

// A group stuck in the backend (cold shard, huge k) must not delay groups
// formed after it: groups run on the query pool, not on the dispatcher
// thread. With the old dispatch-thread execution the fast query below
// would block behind the gated group and the test would time out.
TEST(QueryBatcherTest, SlowGroupDoesNotBlockOtherGroups) {
  StubBackend backend;
  backend.GateOn(/*k=*/999);
  ThreadPool pool(4);
  QueryBatcher batcher(&backend, &pool, /*max_batch=*/8);

  auto slow = std::async(std::launch::async, [&] {
    return batcher.Submit(Opcode::kJoin, OneColumn(), 999);
  });
  ASSERT_TRUE(backend.WaitForGatedEntry());

  // The gated group is in flight; a different-(op, k) group must still
  // complete. Bounded wait: on regression this fails rather than hangs.
  auto fast = std::async(std::launch::async, [&] {
    return batcher.Submit(Opcode::kJoin, OneColumn(), 5);
  });
  ASSERT_EQ(fast.wait_for(10s), std::future_status::ready);
  auto fast_result = fast.get();
  ASSERT_TRUE(fast_result.ok());
  EXPECT_EQ(fast_result.value(), std::vector<std::string>{"join_k5"});
  EXPECT_FALSE(backend.gated_finished());

  backend.ReleaseGated();
  auto slow_result = slow.get();
  ASSERT_TRUE(slow_result.ok());
  EXPECT_EQ(slow_result.value(), std::vector<std::string>{"join_k999"});
}

// Group formation must split by (opcode, k) BEFORE applying the max_batch
// cap, filling each group from the whole queue. The old code took
// max_batch jobs first and then split, so an interleaved join/union burst
// yielded fragmented half-size batches (2+2 with max_batch 4) instead of
// full per-key ones (4+4).
TEST(QueryBatcherTest, MixedOpcodeBurstFormsFullPerKeyGroups) {
  StubBackend backend;
  backend.GateOn(/*k=*/1);
  // A shut-down pool rejects Submit, so every group runs inline on the
  // dispatcher thread — which serializes rounds and lets the gated plug
  // job below hold the dispatcher while the burst queues up.
  ThreadPool pool(2);
  pool.Shutdown();
  QueryBatcher batcher(&backend, &pool, /*max_batch=*/4);

  auto plug = std::async(std::launch::async, [&] {
    return batcher.Submit(Opcode::kJoin, OneColumn(), 1);
  });
  ASSERT_TRUE(backend.WaitForGatedEntry());

  // Interleave 4 join and 4 union queries with the same k while the
  // dispatcher is plugged; wait until all 8 are parked.
  std::vector<std::future<Result<std::vector<std::string>>>> burst;
  for (size_t i = 0; i < 8; ++i) {
    const Opcode op = (i % 2 == 0) ? Opcode::kJoin : Opcode::kUnion;
    burst.push_back(std::async(std::launch::async, [&, op] {
      return batcher.Submit(op, OneColumn(), 7);
    }));
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (batcher.PendingForTest() < 8) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }

  backend.ReleaseGated();
  ASSERT_TRUE(plug.get().ok());
  for (auto& f : burst) {
    auto result = f.get();
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.value().size(), 1u);
  }

  // One plug batch of 1, then one full group per key: {1, 4, 4}.
  EXPECT_EQ(backend.batch_sizes(), (std::vector<size_t>{1, 4, 4}));
  const ServerStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, 9u);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.max_batch, 4u);
}

// Stop() must wait out groups already handed to the query pool: every
// Submit accepted before Stop gets a real result, never a broken promise.
TEST(QueryBatcherTest, StopDrainsAcceptedAndInflightQueries) {
  StubBackend backend;
  ThreadPool pool(4);
  QueryBatcher batcher(&backend, &pool, /*max_batch=*/4);

  std::vector<std::future<Result<std::vector<std::string>>>> submits;
  for (size_t i = 0; i < 16; ++i) {
    submits.push_back(std::async(std::launch::async, [&, i] {
      return batcher.Submit(Opcode::kJoin, OneColumn(), 3 + i % 2);
    }));
  }
  batcher.Stop();

  size_t answered = 0;
  for (auto& f : submits) {
    auto result = f.get();  // a broken promise would throw here
    if (result.ok()) {
      ASSERT_EQ(result.value().size(), 1u);
      ++answered;
    }
    // !ok is the documented shutting-down rejection for late arrivals.
  }
  EXPECT_EQ(batcher.stats().requests, answered);
}

}  // namespace
}  // namespace tsfm::server
