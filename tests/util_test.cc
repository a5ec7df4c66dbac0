#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <cstdlib>

#include "search/distance_kernels.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tsfm {
namespace {

// ----------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU32(), b.NextU32());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnit) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NormalHasApproximateMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.08);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(3);
  auto idx = rng.SampleIndices(100, 30);
  ASSERT_EQ(idx.size(), 30u);
  std::set<size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t i : idx) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleIndicesAllWhenKExceedsN) {
  Rng rng(3);
  auto idx = rng.SampleIndices(5, 99);
  ASSERT_EQ(idx.size(), 5u);
  std::set<size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 5u);
}

// ------------------------------------------------------------------- Hash

TEST(HashTest, Murmur3IsDeterministic) {
  EXPECT_EQ(Murmur3_32("hello", 0), Murmur3_32("hello", 0));
  EXPECT_NE(Murmur3_32("hello", 0), Murmur3_32("hello", 1));
  EXPECT_NE(Murmur3_32("hello", 0), Murmur3_32("hellp", 0));
}

TEST(HashTest, Murmur3HandlesAllTailLengths) {
  // Exercise the 0..3 tail-byte switch.
  std::set<uint32_t> hashes;
  for (const char* s : {"", "a", "ab", "abc", "abcd", "abcde"}) {
    hashes.insert(Murmur3_32(s, 42));
  }
  EXPECT_EQ(hashes.size(), 6u);
}

TEST(HashTest, Fnv1a64KnownValue) {
  // FNV-1a of empty string is the offset basis.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
}

TEST(HashTest, SplitMix64Avalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  uint64_t a = SplitMix64(0x1234);
  uint64_t b = SplitMix64(0x1235);
  int diff = __builtin_popcountll(a ^ b);
  EXPECT_GT(diff, 16);
  EXPECT_LT(diff, 48);
}

TEST(HashTest, HashCombineOrderMatters) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// ----------------------------------------------------------------- Strings

TEST(StringTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(StringTest, JoinRoundTrip) {
  std::vector<std::string> v = {"x", "y", "z"};
  EXPECT_EQ(Join(v, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringTest, ToLowerAscii) { EXPECT_EQ(ToLower("AbC123"), "abc123"); }

TEST(StringTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("##piece", "##"));
  EXPECT_FALSE(StartsWith("#piece", "##"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(StringTest, IsDigits) {
  EXPECT_TRUE(IsDigits("0123"));
  EXPECT_FALSE(IsDigits(""));
  EXPECT_FALSE(IsDigits("12a"));
  EXPECT_FALSE(IsDigits("-1"));
}

TEST(StringTest, FormatDoublePrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-1.0, 1), "-1.0");
}

TEST(StringTest, Padding) {
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("abcde", 3), "abcde");
}

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(50);
  ParallelFor(&pool, 0, 50, [&](size_t i) { touched[i].fetch_add(1); });
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  ParallelFor(&pool, 5, 5, [](size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  pool.Shutdown();  // must run everything already accepted, then join
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejectedAndWaitDoesNotWedge) {
  ThreadPool pool(2);
  pool.Shutdown();
  // A task accepted now would never run — in_flight would stay nonzero and
  // Wait() below would block forever. Rejection is the only safe answer.
  EXPECT_FALSE(pool.Submit([] { FAIL() << "must not run"; }));
  pool.Wait();  // returns immediately; wedging here is the bug
  pool.Shutdown();  // idempotent
}

TEST(ThreadPoolTest, ConcurrentSubmitDuringShutdownNeverLosesAcceptedTasks) {
  // Hammer Submit from several threads while the pool shuts down. Every
  // accepted task must execute (else Wait()/Shutdown() can wedge on a
  // stranded in_flight count); every rejected task must not.
  std::atomic<int> accepted{0};
  std::atomic<int> executed{0};
  auto pool = std::make_unique<ThreadPool>(2);
  std::vector<std::thread> submitters;
  std::atomic<bool> go{false};
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 500; ++i) {
        if (pool->Submit([&executed] { executed.fetch_add(1); })) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  go.store(true);
  pool->Shutdown();
  for (auto& t : submitters) t.join();
  EXPECT_EQ(executed.load(), accepted.load());
}

TEST(ThreadPoolTest, ParallelForOnShutDownPoolStillCoversRange) {
  ThreadPool pool(2);
  pool.Shutdown();
  // The pool rejects everything, so ParallelFor must fall back to running
  // the whole range inline rather than silently skipping it.
  std::vector<std::atomic<int>> touched(20);
  ParallelFor(&pool, 0, 20, [&](size_t i) { touched[i].fetch_add(1); });
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForOnShutDownPoolRunsRejectedWorkInlineExactlyOnce) {
  // Assertion-style pin of the full shutdown contract in thread_pool.h,
  // which the server's drain path relies on (QueryBatcher::RunGroup may
  // issue a ParallelFor racing Stop()'s pool teardown): on a shut pool,
  // every index runs (1) exactly once, (2) on the *calling* thread, and
  // (3) in ascending order — i.e. the serial inline fallback, not a
  // half-parallel remnant that could reorder or drop work.
  ThreadPool pool(3);
  pool.Shutdown();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> runs(64, 0);
  std::vector<size_t> order;
  bool all_on_caller = true;
  ParallelFor(&pool, 0, 64, [&](size_t i) {
    // No synchronization on purpose: if the fallback ever ran off-thread,
    // TSan/ASan runs of this test would flag it even before the asserts.
    runs[i] += 1;
    order.push_back(i);
    if (std::this_thread::get_id() != caller) all_on_caller = false;
  });
  for (size_t i = 0; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i], 1) << "index " << i << " ran " << runs[i] << " times";
  }
  ASSERT_TRUE(all_on_caller) << "inline fallback left the calling thread";
  ASSERT_EQ(order.size(), runs.size());
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_GE(t.Millis(), 0.0);
}

// ------------------------------------------------------------------ Mutex

TEST(MutexTest, MutexLockExcludesOtherThreads) {
  Mutex mu;
  bool contended_try = true;
  {
    MutexLock lock(&mu);
    // TryLock must be probed from another thread: self-try_lock on a held
    // std::mutex is undefined behavior.
    std::thread prober([&] { contended_try = mu.TryLock(); });
    prober.join();
    EXPECT_FALSE(contended_try);
  }
  std::thread prober([&] {
    contended_try = mu.TryLock();
    if (contended_try) mu.Unlock();
  });
  prober.join();
  EXPECT_TRUE(contended_try) << "MutexLock leaked the lock past its scope";
}

TEST(MutexTest, MutexLockSerializesIncrements) {
  Mutex mu;
  int counter = 0;  // deliberately non-atomic: the lock is the protection
  std::vector<std::thread> threads;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kPerThread);
}

TEST(MutexTest, ReaderLocksShareWriterLocksExclude) {
  SharedMutex mu;
  std::atomic<bool> second_reader_entered{false};
  {
    ReaderMutexLock reader(&mu);
    // A second shared lock must not block while the first is held.
    std::thread other([&] {
      ReaderMutexLock nested(&mu);
      second_reader_entered.store(true);
    });
    other.join();
    EXPECT_TRUE(second_reader_entered.load());
  }
  // Writers are exclusive: hold the writer side, verify a reader cannot
  // enter until release, without timing assumptions — the reader thread
  // records whether the guarded value was fully published first.
  int guarded = 0;
  std::atomic<bool> reader_saw_final{false};
  std::thread reader;
  {
    WriterMutexLock writer(&mu);
    reader = std::thread([&] {
      ReaderMutexLock lock(&mu);
      reader_saw_final.store(guarded == 42);
    });
    guarded = 42;  // published before the writer lock is released
  }
  reader.join();
  EXPECT_TRUE(reader_saw_final.load());
}

TEST(MutexTest, CondVarWaitReleasesAndReacquires) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  bool consumed = false;
  std::thread producer([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyOne();
    // Wait for the consumer under the same lock: Wait must have released
    // it or the producer could never have gotten here.
    while (!consumed) cv.Wait(mu);
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(mu);
    consumed = true;
    cv.NotifyOne();
  }
  producer.join();
  EXPECT_TRUE(consumed);
}

TEST(MutexTest, CondVarWaitForTimesOutWithLockReacquired) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  // Nobody notifies; WaitFor must come back false with the lock held (the
  // guarded write below would be a TSan race if reacquisition failed).
  EXPECT_FALSE(cv.WaitFor(mu, std::chrono::milliseconds(5)));
}

// ---------------------------------------------------------------- Logging

TEST(LoggingTest, PoolThreadsLoggingThroughShutdownDoNotRace) {
  // Pins the leaked-sink-mutex fix in util/logging.cc: workers still
  // logging while the pool tears down (and after, on the main thread)
  // must serialize on a sink lock that is guaranteed to outlive them.
  // Run under TSan to make this assertion-strength.
  const LogLevel previous = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // keep test output quiet; kInfo is emitted
  auto pool = std::make_unique<ThreadPool>(4);
  for (int i = 0; i < 64; ++i) {
    (void)pool->Submit([i] { TSFM_LOG(Info) << "worker message " << i; });
  }
  pool->Shutdown();
  TSFM_LOG(Info) << "after shutdown";
  SetLogLevel(previous);
}

// ----------------------------------------------------- kernel env override

TEST(KernelSelectionTest, ForceScalarEnvOverrideComposes) {
  // LAKS_FORCE_SCALAR must force the scalar level on (re)selection and
  // must not disturb BestSimdLevel(), which parity tests use to reach SIMD
  // in the same process. Both kernel families follow the one selection.
  // Composes with the TSan job: that build re-runs this test with the
  // override exercised under the race detector.
  const char* before = std::getenv("LAKS_FORCE_SCALAR");
  const std::string saved = before != nullptr ? before : "";

  ASSERT_EQ(setenv("LAKS_FORCE_SCALAR", "1", /*overwrite=*/1), 0);
  internal::OverrideSimdLevelForTest(std::nullopt);  // force re-selection
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  EXPECT_EQ(&search::Kernels(), &search::ScalarKernels());
  // "0" and empty mean no override.
  ASSERT_EQ(setenv("LAKS_FORCE_SCALAR", "0", /*overwrite=*/1), 0);
  internal::OverrideSimdLevelForTest(std::nullopt);
  EXPECT_EQ(ActiveSimdLevel(), BestSimdLevel());
  EXPECT_EQ(&search::Kernels(), &search::BestKernels());

  if (before != nullptr) {
    ASSERT_EQ(setenv("LAKS_FORCE_SCALAR", saved.c_str(), /*overwrite=*/1), 0);
  } else {
    ASSERT_EQ(unsetenv("LAKS_FORCE_SCALAR"), 0);
  }
  internal::OverrideSimdLevelForTest(std::nullopt);
  EXPECT_EQ(ActiveSimdLevel(), internal::ForceScalarFromEnvForTest()
                                   ? SimdLevel::kScalar
                                   : BestSimdLevel());
}

}  // namespace
}  // namespace tsfm
