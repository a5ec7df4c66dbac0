// Mutable lakes (ROADMAP "Mutable lakes"): live AddTable/RemoveTable
// churn against sealed LakeIndex/ShardedLakeIndex, the delta/tombstone/
// compaction lifecycle, churn-parity with a from-scratch rebuild, the
// LAK2 v4 / LAKS v3 persistence, snapshot-consistent queries during
// compaction, and the serving stack's mutation opcodes end to end
// (in-process server, auto-compaction, and the distributed coordinator).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "search/lake_index.h"
#include "search/lake_manifest.h"
#include "search/sharded_lake_index.h"
#include "server/backend.h"
#include "server/distributed_lake_index.h"
#include "server/lake_client.h"
#include "server/lake_server.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tsfm::search {
namespace {

using testutil::Corpus;
using testutil::MakeCorpus;
using testutil::RandomVec;
using testutil::ReadAll;
using testutil::RecallAtK;
using testutil::TempFile;

// Every versioned format in this repo is `u32 magic, u32 version, ...`.
uint32_t FileVersion(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint32_t magic = 0, version = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  return version;
}

void PatchU32At(const std::string& path, size_t offset, uint32_t value) {
  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  io.seekp(static_cast<std::streamoff>(offset));
  io.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

LakeIndex BuildLake(const Corpus& corpus, size_t dim,
                    const IndexOptions& options = {}) {
  LakeIndex index(dim, options);
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    index.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  return index;
}

ShardedLakeIndex BuildShardedLake(const Corpus& corpus, size_t dim,
                                  size_t shards,
                                  const IndexOptions& options = {}) {
  ShardedLakeIndex index(dim, shards, options);
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    index.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  return index;
}

// One scripted churn burst, applied identically to any index-shaped thing:
// a batch of fresh tables, a batch of removals (some base, some delta, one
// double-add/remove pair), leaving a mix of pending deltas and tombstones.
struct ChurnScript {
  std::vector<std::pair<std::string, std::vector<std::vector<float>>>> adds;
  std::vector<std::string> removes;
};

ChurnScript MakeChurnScript(size_t dim, uint64_t seed) {
  ChurnScript script;
  Rng rng(seed);
  for (size_t t = 0; t < 8; ++t) {
    std::vector<std::vector<float>> cols(1 + t % 2);
    for (auto& col : cols) col = RandomVec(&rng, dim);
    script.adds.push_back({"delta_" + std::to_string(t), std::move(cols)});
  }
  // A duplicate id: newest-live must die first.
  script.adds.push_back({"table_3", {RandomVec(&rng, dim)}});
  script.removes = {"table_1", "table_7", "delta_2", "table_3",
                    "table_12", "delta_5"};
  return script;
}

template <typename Index>
void ApplyScript(Index* index, const ChurnScript& script) {
  for (const auto& [id, cols] : script.adds) index->AddTable(id, cols);
  for (const auto& id : script.removes) {
    ASSERT_TRUE(index->RemoveTable(id).ok()) << id;
  }
}

// The surviving (id, columns) list in original insertion order — what a
// from-scratch rebuild sees. Mirrors the newest-live removal rule.
Corpus Survivors(const Corpus& corpus, const ChurnScript& script) {
  std::vector<std::pair<std::string, std::vector<std::vector<float>>>> log;
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    log.push_back({corpus.ids[t], corpus.tables[t]});
  }
  for (const auto& add : script.adds) log.push_back(add);
  std::vector<bool> alive(log.size(), true);
  for (const auto& id : script.removes) {
    for (size_t i = log.size(); i-- > 0;) {
      if (alive[i] && log[i].first == id) {
        alive[i] = false;
        break;
      }
    }
  }
  Corpus out;
  out.join_queries = corpus.join_queries;
  out.union_queries = corpus.union_queries;
  for (size_t i = 0; i < log.size(); ++i) {
    if (!alive[i]) continue;
    out.ids.push_back(log[i].first);
    out.tables.push_back(log[i].second);
  }
  return out;
}

// ------------------------------------------------------- LakeIndex churn

TEST(MutableLakeTest, UnchurnedSavesWriteV5AndSealingMovesNoBytes) {
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(20, dim, 21);
  {
    TempFile file("mutable_unsealed.lak2");
    TempFile sealed_file("mutable_sealed.lak2");
    LakeIndex unsealed = BuildLake(corpus, dim);
    LakeIndex sealed = BuildLake(corpus, dim);
    sealed.Seal();
    ASSERT_TRUE(unsealed.Save(file.path()).ok());
    ASSERT_TRUE(sealed.Save(sealed_file.path()).ok());
    EXPECT_EQ(FileVersion(file.path()), 5u);
    // Sealing alone is not churn: the bytes must not move.
    EXPECT_EQ(ReadAll(file.path()), ReadAll(sealed_file.path()));
  }
  {
    TempFile file("mutable_sq8.lak2");
    IndexOptions sq8;
    sq8.storage = Storage::kSq8;
    LakeIndex index = BuildLake(corpus, dim, sq8);
    ASSERT_TRUE(index.Save(file.path()).ok());
    EXPECT_EQ(FileVersion(file.path()), 5u);
  }
}

TEST(MutableLakeTest, RemoveTableKillsNewestLiveAndReportsNotFound) {
  const size_t dim = 4;
  LakeIndex index(dim);
  Rng rng(22);
  const auto col_a = RandomVec(&rng, dim);
  const auto col_b = RandomVec(&rng, dim);
  index.AddTable("dup", {col_a});
  index.AddTable("dup", {col_b});
  index.Seal();
  EXPECT_EQ(index.num_live_tables(), 2u);

  // Newest live dies first; the older twin keeps serving.
  ASSERT_TRUE(index.RemoveTable("dup").ok());
  EXPECT_FALSE(index.is_live(1));
  EXPECT_TRUE(index.is_live(0));
  EXPECT_EQ(index.num_live_tables(), 1u);
  EXPECT_EQ(index.pending_tombstones(), 1u);

  ASSERT_TRUE(index.RemoveTable("dup").ok());
  EXPECT_EQ(index.num_live_tables(), 0u);

  Status missing = index.RemoveTable("dup");
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_EQ(index.RemoveTable("never_existed").code(), StatusCode::kNotFound);
}

TEST(MutableLakeTest, PostSealAddsAndRemovesAreVisibleImmediately) {
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(10, dim, 23);
  ShardedLakeIndex index = ShardedLakeIndex::FromSingle(BuildLake(corpus, dim));
  index.Seal();

  // A delta table whose column *is* the probe ranks first instantly.
  Rng rng(24);
  const auto probe = RandomVec(&rng, dim);
  index.AddTable("bullseye", {probe});
  EXPECT_EQ(index.pending_delta_tables(), 1u);
  auto ranked = index.QueryJoinable(probe, 3);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0], "bullseye");

  ASSERT_TRUE(index.RemoveTable("bullseye").ok());
  for (const auto& id : index.QueryJoinable(probe, 10)) {
    EXPECT_NE(id, "bullseye");
  }
}

TEST(MutableLakeTest, FlatChurnParityHoldsEvenBeforeCompaction) {
  // For float32 flat lakes the delta segment uses the identical kernel and
  // merge key as the base, so parity with a from-scratch build of the
  // survivors holds continuously — not just after Compact.
  const size_t dim = 16;
  Corpus corpus = MakeCorpus(40, dim, 25);
  ChurnScript script = MakeChurnScript(dim, 26);
  ShardedLakeIndex churned =
      ShardedLakeIndex::FromSingle(BuildLake(corpus, dim));
  churned.Seal();
  ApplyScript(&churned, script);

  Corpus survivors = Survivors(corpus, script);
  ShardedLakeIndex rebuilt =
      ShardedLakeIndex::FromSingle(BuildLake(survivors, dim));
  for (const auto& q : corpus.join_queries) {
    EXPECT_EQ(churned.QueryJoinable(q, 5), rebuilt.QueryJoinable(q, 5));
  }
  for (const auto& q : corpus.union_queries) {
    EXPECT_EQ(churned.QueryUnionable(q, 5), rebuilt.QueryUnionable(q, 5));
  }
}

TEST(MutableLakeTest, CompactRestoresParityForFloat32AndSq8) {
  const size_t dim = 16;
  Corpus corpus = MakeCorpus(40, dim, 27);
  ChurnScript script = MakeChurnScript(dim, 28);
  Corpus survivors = Survivors(corpus, script);
  for (auto storage : {Storage::kFloat32, Storage::kSq8}) {
    IndexOptions options;
    options.storage = storage;
    ShardedLakeIndex index =
        ShardedLakeIndex::FromSingle(BuildLake(corpus, dim, options));
    index.Seal();
    ApplyScript(&index, script);
    EXPECT_TRUE(index.churned());
    ASSERT_TRUE(index.Compact().ok());

    // Handles re-densify to the survivors in insertion order, counters
    // reset, and rankings are bit-identical to a from-scratch build (for
    // sq8 the codec retrained over exactly the surviving rows).
    EXPECT_FALSE(index.churned());
    EXPECT_EQ(index.num_tables(), survivors.tables.size());
    EXPECT_EQ(index.pending_delta_tables(), 0u);
    EXPECT_EQ(index.pending_tombstones(), 0u);
    EXPECT_EQ(index.compactions(), 1u);
    for (size_t h = 0; h < survivors.ids.size(); ++h) {
      EXPECT_EQ(index.table_id(h), survivors.ids[h]);
    }
    ShardedLakeIndex rebuilt =
        ShardedLakeIndex::FromSingle(BuildLake(survivors, dim, options));
    for (const auto& q : corpus.join_queries) {
      EXPECT_EQ(index.QueryJoinable(q, 5), rebuilt.QueryJoinable(q, 5));
    }
    for (const auto& q : corpus.union_queries) {
      EXPECT_EQ(index.QueryUnionable(q, 5), rebuilt.QueryUnionable(q, 5));
    }
  }
}

TEST(MutableLakeTest, ChurnedSaveWritesV5AndRoundTrips) {
  const size_t dim = 12;
  Corpus corpus = MakeCorpus(30, dim, 29);
  ChurnScript script = MakeChurnScript(dim, 30);
  for (auto storage : {Storage::kFloat32, Storage::kSq8}) {
    IndexOptions options;
    options.storage = storage;
    LakeIndex index = BuildLake(corpus, dim, options);
    index.Seal();
    ApplyScript(&index, script);

    TempFile file("mutable_churned_v5.lak2");
    ASSERT_TRUE(index.Save(file.path()).ok());
    EXPECT_EQ(FileVersion(file.path()), 5u);

    auto loaded = LakeIndex::Load(file.path());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().num_tables(), index.num_tables());
    EXPECT_EQ(loaded.value().num_live_tables(), index.num_live_tables());
    EXPECT_EQ(loaded.value().pending_delta_tables(),
              index.pending_delta_tables());
    EXPECT_EQ(loaded.value().pending_tombstones(), index.pending_tombstones());
    ShardedLakeIndex restored =
        ShardedLakeIndex::FromSingle(std::move(loaded).value());
    ShardedLakeIndex writer = ShardedLakeIndex::FromSingle(std::move(index));
    for (const auto& q : corpus.join_queries) {
      EXPECT_EQ(restored.QueryJoinable(q, 5), writer.QueryJoinable(q, 5));
    }
    // The loaded lake is sealed: more churn and a compaction still work.
    Rng rng(31);
    restored.AddTable("post_load", {RandomVec(&rng, dim)});
    ASSERT_TRUE(restored.Compact().ok());
  }
}

TEST(MutableLakeTest, NewerOrTruncatedChurnFilesRejectedCleanly) {
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(20, dim, 32);
  ChurnScript script = MakeChurnScript(dim, 33);
  LakeIndex index = BuildLake(corpus, dim);
  index.Seal();
  ApplyScript(&index, script);
  TempFile file("mutable_hostile.lak2");
  ASSERT_TRUE(index.Save(file.path()).ok());

  // A version from the future (what a v4 reader sees in this build's
  // files, from the other side): clean ParseError naming the version.
  PatchU32At(file.path(), 4, 6);
  auto newer = LakeIndex::Load(file.path());
  ASSERT_FALSE(newer.ok());
  EXPECT_EQ(newer.status().code(), StatusCode::kParseError);
  EXPECT_NE(newer.status().ToString().find("newer format version"),
            std::string::npos)
      << newer.status().ToString();
  PatchU32At(file.path(), 4, 5);

  const std::string bytes = ReadAll(file.path());
  for (size_t keep : {size_t{6}, size_t{30}, bytes.size() / 2,
                      bytes.size() - 3}) {
    std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_FALSE(LakeIndex::Load(file.path()).ok()) << "kept " << keep;
  }
}

TEST(MutableLakeTest, HnswCompactionRebuildsTheGraph) {
  const size_t dim = 16, k = 10;
  Corpus corpus = MakeCorpus(200, dim, 34);
  ChurnScript script = MakeChurnScript(dim, 35);
  IndexOptions hnsw;
  hnsw.backend = IndexBackend::kHnsw;
  hnsw.hnsw.ef_search = 128;
  ShardedLakeIndex index =
      ShardedLakeIndex::FromSingle(BuildLake(corpus, dim, hnsw));
  index.Seal();
  ApplyScript(&index, script);
  ASSERT_GT(index.pending_tombstones(), 0u);

  // Compaction always rebuilds the graph: handles densify and the
  // acceptance bar is recall@10 >= 0.95 against flat gold over the
  // survivors.
  ASSERT_TRUE(index.Compact().ok());
  EXPECT_EQ(index.pending_delta_tables(), 0u);
  EXPECT_EQ(index.pending_tombstones(), 0u);
  EXPECT_EQ(index.compactions(), 1u);
  Corpus survivors = Survivors(corpus, script);
  EXPECT_EQ(index.num_tables(), survivors.tables.size());
  ShardedLakeIndex flat_gold =
      ShardedLakeIndex::FromSingle(BuildLake(survivors, dim));
  double recall_sum = 0;
  for (const auto& q : corpus.join_queries) {
    auto gold = flat_gold.QueryJoinable(q, k);
    ASSERT_GE(gold.size(), k);
    recall_sum += RecallAtK(gold, index.QueryJoinable(q, k), k);
  }
  EXPECT_GE(recall_sum / static_cast<double>(corpus.join_queries.size()), 0.95);
}

// ------------------------------------------------ ShardedLakeIndex churn

TEST(MutableLakeTest, ShardedChurnParityAcrossShardCountsAndStorage) {
  const size_t dim = 16;
  Corpus corpus = MakeCorpus(40, dim, 36);
  ChurnScript script = MakeChurnScript(dim, 37);
  Corpus survivors = Survivors(corpus, script);
  ThreadPool pool(2);
  for (auto storage : {Storage::kFloat32, Storage::kSq8}) {
    IndexOptions options;
    options.storage = storage;
    ShardedLakeIndex rebuilt_gold =
        ShardedLakeIndex::FromSingle(BuildLake(survivors, dim, options));
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
      ShardedLakeIndex index = BuildShardedLake(corpus, dim, shards, options);
      index.Seal();
      ApplyScript(&index, script);
      if (storage == Storage::kFloat32) {
        // Flat float32 parity holds before compaction too.
        ShardedLakeIndex churned_twin =
            BuildShardedLake(survivors, dim, shards, options);
        for (const auto& q : corpus.join_queries) {
          EXPECT_EQ(index.QueryJoinable(q, 5), churned_twin.QueryJoinable(q, 5))
              << shards << " shards, pre-compaction";
        }
      }
      ASSERT_TRUE(index.Compact(&pool).ok());
      EXPECT_EQ(index.num_tables(), survivors.tables.size());
      EXPECT_EQ(index.pending_tombstones(), 0u);
      EXPECT_EQ(index.compactions(), 1u);
      for (size_t h = 0; h < survivors.ids.size(); ++h) {
        EXPECT_EQ(index.table_id(h), survivors.ids[h]);
      }
      ShardedLakeIndex sharded_gold =
          BuildShardedLake(survivors, dim, shards, options);
      for (const auto& q : corpus.join_queries) {
        EXPECT_EQ(index.QueryJoinable(q, 5), sharded_gold.QueryJoinable(q, 5))
            << shards << " shards";
        EXPECT_EQ(index.QueryJoinable(q, 5), rebuilt_gold.QueryJoinable(q, 5))
            << shards << " shards vs unsharded";
      }
      for (const auto& q : corpus.union_queries) {
        EXPECT_EQ(index.QueryUnionable(q, 5), sharded_gold.QueryUnionable(q, 5))
            << shards << " shards";
      }
    }
  }
}

TEST(MutableLakeTest, ShardedChurnedManifestWritesV3AndRoundTrips) {
  const size_t dim = 12;
  Corpus corpus = MakeCorpus(30, dim, 38);
  ChurnScript script = MakeChurnScript(dim, 39);
  {
    // An unchurned lake writes the same manifest version as a churned one.
    TempFile file("mutable_unchurned.laks");
    ShardedLakeIndex frozen = BuildShardedLake(corpus, dim, 3);
    ASSERT_TRUE(frozen.Save(file.path()).ok());
    EXPECT_EQ(FileVersion(file.path()), 3u);
  }
  TempFile file("mutable_churned.laks");
  ShardedLakeIndex index = BuildShardedLake(corpus, dim, 3);
  index.Seal();
  ApplyScript(&index, script);
  ASSERT_TRUE(index.Save(file.path()).ok());
  EXPECT_EQ(FileVersion(file.path()), 3u);

  auto loaded = ShardedLakeIndex::Load(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_tables(), index.num_tables());
  EXPECT_EQ(loaded.value().num_live_tables(), index.num_live_tables());
  EXPECT_EQ(loaded.value().pending_tombstones(), index.pending_tombstones());
  for (const auto& q : corpus.join_queries) {
    EXPECT_EQ(loaded.value().QueryJoinable(q, 5), index.QueryJoinable(q, 5));
  }

  // A manifest whose live-table count disagrees with the shard files is a
  // torn save: clean ParseError, not silent wrong answers. The count sits
  // after magic+version+backend+metric+storage+dim = 28 bytes.
  PatchU32At(file.path(), 28, 1u << 20);
  auto torn = ShardedLakeIndex::Load(file.path());
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kParseError);
}

TEST(MutableLakeTest, QueriesDuringCompactionSeeExactlyOneEpoch) {
  // Snapshot consistency: every concurrent query result must equal the
  // ranking of *some* epoch the lake actually passed through — never a
  // blend of two. The twin replays the same ops to precompute every legal
  // per-epoch ranking before the racing starts.
  const size_t dim = 8, k = 8;
  Corpus corpus = MakeCorpus(30, dim, 40);
  ChurnScript script = MakeChurnScript(dim, 41);
  const auto probe = corpus.join_queries[0];

  std::vector<std::vector<std::string>> epochs;
  {
    ShardedLakeIndex twin = BuildShardedLake(corpus, dim, 2);
    twin.Seal();
    epochs.push_back(twin.QueryJoinable(probe, k));
    for (const auto& [id, cols] : script.adds) {
      twin.AddTable(id, cols);
      epochs.push_back(twin.QueryJoinable(probe, k));
    }
    for (const auto& id : script.removes) {
      ASSERT_TRUE(twin.RemoveTable(id).ok());
      epochs.push_back(twin.QueryJoinable(probe, k));
    }
    // Flat compaction is rank-preserving, so it adds no new epoch.
    ASSERT_TRUE(twin.Compact().ok());
    EXPECT_EQ(twin.QueryJoinable(probe, k), epochs.back());
  }

  ShardedLakeIndex index = BuildShardedLake(corpus, dim, 2);
  index.Seal();
  std::atomic<bool> stop{false};
  std::atomic<size_t> checked{0};
  std::thread querier([&] {
    while (!stop.load()) {
      auto ranked = index.QueryJoinable(probe, k);
      bool known = false;
      for (const auto& epoch : epochs) {
        if (ranked == epoch) {
          known = true;
          break;
        }
      }
      EXPECT_TRUE(known) << "query observed a ranking matching no epoch";
      checked.fetch_add(1);
      if (!known) break;
    }
  });
  // Let the querier get going before the mutations race it.
  while (checked.load() == 0) std::this_thread::yield();
  for (const auto& [id, cols] : script.adds) {
    index.AddTable(id, cols);
    std::this_thread::yield();
  }
  for (const auto& id : script.removes) {
    ASSERT_TRUE(index.RemoveTable(id).ok());
    std::this_thread::yield();
  }
  // Compactions race the querier directly: the off-lock rebuild plus
  // atomic swap must never surface a half-compacted lake.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(index.Compact().ok());
  }
  stop.store(true);
  querier.join();
  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(index.QueryJoinable(probe, k), epochs.back());
}

}  // namespace

// --------------------------------------------------- serving stack churn

namespace server_churn {
namespace {

using server::DistributedLakeIndex;
using server::LakeClient;
using server::LakeServer;
using server::ServerOptions;
using testutil::Corpus;
using testutil::MakeCorpus;
using testutil::RandomVec;
using testutil::TempFile;

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/tsfm_mutable_lake_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

ShardedLakeIndex BuildShardedLake(const Corpus& corpus, size_t dim,
                                  size_t shards,
                                  const IndexOptions& options = {}) {
  ShardedLakeIndex index(dim, shards, options);
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    index.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  return index;
}

TEST(MutableLakeServerTest, MutationOpcodesEndToEnd) {
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(20, dim, 50);
  LakeServer server(BuildShardedLake(corpus, dim, 2));
  const std::string socket = UniqueSocketPath();
  ASSERT_TRUE(server.Start(socket).ok());

  LakeClient client;
  ASSERT_TRUE(client.Connect(socket).ok());
  Rng rng(51);
  const auto probe = RandomVec(&rng, dim);
  ASSERT_TRUE(client.AddTable("wire_added", {probe}).ok());
  auto ranked = client.QueryJoinable(probe, 3);
  ASSERT_TRUE(ranked.ok());
  ASSERT_FALSE(ranked.value().empty());
  EXPECT_EQ(ranked.value()[0], "wire_added");

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().pending_delta_tables, 1u);
  EXPECT_EQ(stats.value().compactions, 0u);

  ASSERT_TRUE(client.RemoveTable("table_0").ok());
  EXPECT_EQ(client.RemoveTable("table_0").code(), StatusCode::kNotFound);
  ASSERT_TRUE(client.Compact().ok());

  stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().pending_delta_tables, 0u);
  EXPECT_EQ(stats.value().pending_tombstones, 0u);
  EXPECT_EQ(stats.value().compactions, 1u);

  ranked = client.QueryJoinable(probe, 3);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked.value()[0], "wire_added");
  for (const auto& id : ranked.value()) EXPECT_NE(id, "table_0");

  // A dim mismatch on ADD_TABLE is the server's clean error, not a hang.
  EXPECT_EQ(client.AddTable("bad", {{1.0f, 2.0f}}).code(),
            StatusCode::kInvalidArgument);
  server.Stop();
  ::unlink(socket.c_str());
}

TEST(MutableLakeServerTest, AutoCompactionTriggersOnPendingChurn) {
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(10, dim, 52);
  ServerOptions options;
  options.auto_compact_pending = 2;
  LakeServer server(BuildShardedLake(corpus, dim, 1), options);
  const std::string socket = UniqueSocketPath();
  ASSERT_TRUE(server.Start(socket).ok());

  LakeClient client;
  ASSERT_TRUE(client.Connect(socket).ok());
  Rng rng(53);
  ASSERT_TRUE(client.AddTable("auto_a", {RandomVec(&rng, dim)}).ok());
  ASSERT_TRUE(client.AddTable("auto_b", {RandomVec(&rng, dim)}).ok());

  // The fold runs in the background on the query pool; poll stats.
  bool compacted = false;
  for (int attempt = 0; attempt < 200 && !compacted; ++attempt) {
    auto stats = client.Stats();
    ASSERT_TRUE(stats.ok());
    compacted = stats.value().compactions >= 1 &&
                stats.value().pending_delta_tables == 0;
    if (!compacted) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(compacted) << "auto-compaction never ran";
  server.Stop();
  ::unlink(socket.c_str());
}

TEST(MutableLakeServerTest, DistributedCoordinatorMutationsMirrorInProcess) {
  const size_t dim = 8;
  const size_t shards = 2;
  Corpus corpus = MakeCorpus(24, dim, 54);
  TempFile manifest("mutable_distributed.laks");
  {
    ShardedLakeIndex built = BuildShardedLake(corpus, dim, shards);
    ASSERT_TRUE(built.Save(manifest.path()).ok());
  }

  // In-process worker fleet: one LakeServer per shard file.
  std::vector<std::unique_ptr<LakeServer>> workers;
  std::vector<std::string> sockets;
  for (size_t s = 0; s < shards; ++s) {
    auto shard = ShardedLakeIndex::Load(
        LakeShardFileName(manifest.path(), s));
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    workers.push_back(
        std::make_unique<LakeServer>(std::move(shard).value()));
    sockets.push_back(UniqueSocketPath());
    ASSERT_TRUE(workers.back()->Start(sockets.back()).ok());
  }
  auto connected = DistributedLakeIndex::Connect(manifest.path(), sockets);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  DistributedLakeIndex coordinator = std::move(connected).value();

  // The in-process twin replays the same mutations; flat parity must hold
  // through churn and across the coordinated compaction.
  ShardedLakeIndex twin = BuildShardedLake(corpus, dim, shards);
  twin.Seal();
  Rng rng(55);
  for (size_t t = 0; t < 6; ++t) {
    const std::string id = "wire_" + std::to_string(t);
    const std::vector<std::vector<float>> cols = {RandomVec(&rng, dim)};
    ASSERT_TRUE(coordinator.AddTable(id, cols).ok());
    twin.AddTable(id, cols);
  }
  for (const std::string id : {"table_2", "wire_3", "table_11"}) {
    ASSERT_TRUE(coordinator.RemoveTable(id).ok());
    ASSERT_TRUE(twin.RemoveTable(id).ok());
  }
  EXPECT_EQ(coordinator.RemoveTable("wire_3").code(), StatusCode::kNotFound);
  EXPECT_EQ(coordinator.Churn().pending_delta_tables, 6u);
  EXPECT_EQ(coordinator.Churn().pending_tombstones, 3u);
  for (const auto& q : corpus.join_queries) {
    auto ranked = coordinator.QueryJoinable(q, 5);
    ASSERT_TRUE(ranked.ok());
    EXPECT_EQ(ranked.value(), twin.QueryJoinable(q, 5));
  }

  ASSERT_TRUE(coordinator.Compact().ok());
  ASSERT_TRUE(twin.Compact().ok());
  EXPECT_EQ(coordinator.num_tables(), twin.num_tables());
  EXPECT_EQ(coordinator.Churn().pending_tombstones, 0u);
  EXPECT_EQ(coordinator.Churn().compactions, 1u);
  for (size_t h = 0; h < twin.num_tables(); ++h) {
    EXPECT_EQ(coordinator.table_id(h), twin.table_id(h));
  }
  for (const auto& q : corpus.join_queries) {
    auto ranked = coordinator.QueryJoinable(q, 5);
    ASSERT_TRUE(ranked.ok());
    EXPECT_EQ(ranked.value(), twin.QueryJoinable(q, 5));
  }
  for (const auto& q : corpus.union_queries) {
    auto ranked = coordinator.QueryUnionable(q, 5);
    ASSERT_TRUE(ranked.ok());
    EXPECT_EQ(ranked.value(), twin.QueryUnionable(q, 5));
  }

  for (size_t s = 0; s < shards; ++s) {
    workers[s]->Stop();
    ::unlink(sockets[s].c_str());
  }
}

TEST(MutableLakeServerTest,
     DistributedQueriesDuringCompactionSeeExactlyOneEpoch) {
  // The distributed twin of QueriesDuringCompactionSeeExactlyOneEpoch:
  // while the coordinator removes tables and compacts its workers, every
  // concurrent answer must equal a ranking the lake actually passed
  // through. Workers re-densify their handles as they compact; a
  // coordinator that let queries pair those handles with its old maps
  // would answer with the wrong tables.
  const size_t dim = 8, k = 8, shards = 2;
  const size_t rounds = 20;
  Corpus corpus = MakeCorpus(40, dim, 58);
  const auto probe = corpus.join_queries[0];
  TempFile manifest("mutable_distributed_epochs.laks");
  {
    ShardedLakeIndex built = BuildShardedLake(corpus, dim, shards);
    ASSERT_TRUE(built.Save(manifest.path()).ok());
  }
  std::vector<std::unique_ptr<LakeServer>> workers;
  std::vector<std::string> sockets;
  for (size_t s = 0; s < shards; ++s) {
    auto shard = ShardedLakeIndex::Load(
        LakeShardFileName(manifest.path(), s));
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    workers.push_back(
        std::make_unique<LakeServer>(std::move(shard).value()));
    sockets.push_back(UniqueSocketPath());
    ASSERT_TRUE(workers.back()->Start(sockets.back()).ok());
  }
  auto connected = DistributedLakeIndex::Connect(manifest.path(), sockets);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  DistributedLakeIndex coordinator = std::move(connected).value();

  // Every legal ranking, from an in-process twin replaying the same calls
  // (flat compaction is rank-preserving, so it adds no epoch).
  std::vector<std::vector<std::string>> epochs;
  {
    ShardedLakeIndex twin = BuildShardedLake(corpus, dim, shards);
    twin.Seal();
    epochs.push_back(twin.QueryJoinable(probe, k));
    for (size_t round = 0; round < rounds; ++round) {
      ASSERT_TRUE(twin.RemoveTable(corpus.ids[round]).ok());
      epochs.push_back(twin.QueryJoinable(probe, k));
      ASSERT_TRUE(twin.Compact().ok());
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> checked{0}, unknown{0};
  std::thread querier([&] {
    while (!stop.load()) {
      auto ranked = coordinator.QueryJoinable(probe, k);
      bool known = false;
      for (const auto& epoch : epochs) {
        known = known || (ranked.ok() && ranked.value() == epoch);
      }
      if (!known) unknown.fetch_add(1);
      checked.fetch_add(1);
    }
  });
  // Let the querier get going before the mutations race it.
  while (checked.load() == 0) std::this_thread::yield();
  for (size_t round = 0; round < rounds; ++round) {
    ASSERT_TRUE(coordinator.RemoveTable(corpus.ids[round]).ok());
    ASSERT_TRUE(coordinator.Compact().ok());
  }
  stop.store(true);
  querier.join();
  EXPECT_EQ(unknown.load(), 0u) << "of " << checked.load()
                                << " answers, these matched no epoch";
  auto final_ranking = coordinator.QueryJoinable(probe, k);
  ASSERT_TRUE(final_ranking.ok());
  EXPECT_EQ(final_ranking.value(), epochs.back());
  for (size_t s = 0; s < shards; ++s) {
    workers[s]->Stop();
    ::unlink(sockets[s].c_str());
  }
}

TEST(MutableLakeServerTest, CoordinatorRefusesMutationsOnChurnedManifest) {
  // The handshake cannot see per-handle tombstones, so a coordinator over
  // a churned manifest serves queries but declines mutations cleanly.
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(12, dim, 56);
  TempFile manifest("mutable_churned_coord.laks");
  {
    ShardedLakeIndex built = BuildShardedLake(corpus, dim, 2);
    built.Seal();
    ASSERT_TRUE(built.RemoveTable("table_1").ok());
    ASSERT_TRUE(built.Save(manifest.path()).ok());
  }
  std::vector<std::unique_ptr<LakeServer>> workers;
  std::vector<std::string> sockets;
  for (size_t s = 0; s < 2; ++s) {
    auto shard = ShardedLakeIndex::Load(
        LakeShardFileName(manifest.path(), s));
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    workers.push_back(
        std::make_unique<LakeServer>(std::move(shard).value()));
    sockets.push_back(UniqueSocketPath());
    ASSERT_TRUE(workers.back()->Start(sockets.back()).ok());
  }
  auto connected = DistributedLakeIndex::Connect(manifest.path(), sockets);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();

  Rng rng(57);
  Status refused =
      connected.value().AddTable("nope", {RandomVec(&rng, dim)});
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.ToString().find("churned"), std::string::npos)
      << refused.ToString();
  EXPECT_EQ(connected.value().Churn().pending_tombstones, 1u);
  // Queries still serve, tombstones filtered worker-side.
  for (const auto& q : corpus.join_queries) {
    auto ranked = connected.value().QueryJoinable(q, 20);
    ASSERT_TRUE(ranked.ok());
    for (const auto& id : ranked.value()) EXPECT_NE(id, "table_1");
  }
  for (size_t s = 0; s < 2; ++s) {
    workers[s]->Stop();
    ::unlink(sockets[s].c_str());
  }
}

}  // namespace
}  // namespace server_churn
}  // namespace tsfm::search
