// ShardedLakeIndex: scatter/gather parity against the unsharded LakeIndex,
// HNSW recall per shard count, the "LAKS" manifest round trip, and failure
// injection for missing/truncated/legacy files.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "search/lake_manifest.h"
#include "search/sharded_lake_index.h"
#include "search/stream_io.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tsfm::search {
namespace {

using testutil::Corpus;
using testutil::MakeCorpus;
using testutil::RandomVec;
using testutil::RecallAtK;
using testutil::TempFile;

LakeIndex BuildUnsharded(const Corpus& corpus, size_t dim,
                         const IndexOptions& options = {}) {
  LakeIndex index(dim, options);
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    index.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  return index;
}

ShardedLakeIndex BuildSharded(const Corpus& corpus, size_t dim, size_t shards,
                              const IndexOptions& options = {}) {
  ShardedLakeIndex index(dim, shards, options);
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    index.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  return index;
}

TEST(ShardedLakeIndexTest, FlatBackendExactParityWithUnsharded) {
  const size_t dim = 16;
  Corpus corpus = MakeCorpus(60, dim, 1);
  ShardedLakeIndex reference =
      ShardedLakeIndex::FromSingle(BuildUnsharded(corpus, dim));
  for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
    ShardedLakeIndex sharded = BuildSharded(corpus, dim, shards);
    EXPECT_EQ(sharded.num_shards(), shards);
    EXPECT_EQ(sharded.num_tables(), corpus.tables.size());
    for (const auto& q : corpus.join_queries) {
      EXPECT_EQ(sharded.QueryJoinable(q, 5), reference.QueryJoinable(q, 5))
          << shards << " shards";
    }
    for (const auto& q : corpus.union_queries) {
      EXPECT_EQ(sharded.QueryUnionable(q, 5), reference.QueryUnionable(q, 5))
          << shards << " shards";
    }
  }
}

TEST(ShardedLakeIndexTest, HnswRecallAtLeastPointNinePerShardCount) {
  const size_t dim = 16, k = 10;
  Corpus corpus = MakeCorpus(200, dim, 2);
  ShardedLakeIndex flat_gold =
      ShardedLakeIndex::FromSingle(BuildUnsharded(corpus, dim));
  IndexOptions hnsw;
  hnsw.backend = IndexBackend::kHnsw;
  hnsw.hnsw.ef_search = 128;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
    ShardedLakeIndex sharded = BuildSharded(corpus, dim, shards, hnsw);
    double recall_sum = 0;
    for (const auto& q : corpus.join_queries) {
      auto gold = flat_gold.QueryJoinable(q, k);
      ASSERT_GE(gold.size(), k);
      recall_sum += RecallAtK(gold, sharded.QueryJoinable(q, k), k);
    }
    EXPECT_GE(recall_sum / static_cast<double>(corpus.join_queries.size()), 0.9)
        << shards << " shards";
  }
}

TEST(ShardedLakeIndexTest, ScatterAndBatchMatchSerial) {
  const size_t dim = 16;
  Corpus corpus = MakeCorpus(50, dim, 3);
  ShardedLakeIndex sharded = BuildSharded(corpus, dim, 3);
  ThreadPool pool(3);
  for (const auto& q : corpus.join_queries) {
    // Pool-scattered single query == serial single query.
    EXPECT_EQ(sharded.QueryJoinable(q, 5, &pool), sharded.QueryJoinable(q, 5));
  }
  auto join_batch = sharded.QueryJoinableBatch(corpus.join_queries, 5, &pool);
  ASSERT_EQ(join_batch.size(), corpus.join_queries.size());
  for (size_t q = 0; q < corpus.join_queries.size(); ++q) {
    EXPECT_EQ(join_batch[q], sharded.QueryJoinable(corpus.join_queries[q], 5));
  }
  auto union_batch = sharded.QueryUnionableBatch(corpus.union_queries, 5, &pool);
  ASSERT_EQ(union_batch.size(), corpus.union_queries.size());
  for (size_t q = 0; q < corpus.union_queries.size(); ++q) {
    EXPECT_EQ(union_batch[q], sharded.QueryUnionable(corpus.union_queries[q], 5));
  }
}

TEST(ShardedLakeIndexTest, ManifestRoundTripBothBackends) {
  const size_t dim = 12;
  Corpus corpus = MakeCorpus(40, dim, 4);
  for (auto backend : {IndexBackend::kFlat, IndexBackend::kHnsw}) {
    IndexOptions options;
    options.backend = backend;
    options.hnsw.ef_search = 96;
    ShardedLakeIndex index = BuildSharded(corpus, dim, 3, options);
    std::string path = testing::TempDir() + "/tsfm_sharded_lake.laks";
    ThreadPool pool(3);
    ASSERT_TRUE(index.Save(path, &pool).ok());

    auto loaded = ShardedLakeIndex::Load(path, &pool);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().num_shards(), 3u);
    EXPECT_EQ(loaded.value().num_tables(), corpus.tables.size());
    EXPECT_EQ(loaded.value().options().backend, backend);
    EXPECT_EQ(loaded.value().options().hnsw.ef_search, 96u);
    // Global handles survive the round trip: handle h still names the same
    // table (the manifest records the insertion order).
    for (size_t h = 0; h < index.num_tables(); ++h) {
      EXPECT_EQ(loaded.value().table_id(h), index.table_id(h));
    }
    // Shard files hold each shard's rows (and an HNSW shard's graph), so
    // the loaded index answers queries identically — both backends.
    for (const auto& q : corpus.join_queries) {
      EXPECT_EQ(loaded.value().QueryJoinable(q, 5), index.QueryJoinable(q, 5));
    }
    for (const auto& q : corpus.union_queries) {
      EXPECT_EQ(loaded.value().QueryUnionable(q, 5), index.QueryUnionable(q, 5));
    }
    std::remove(path.c_str());
    for (size_t s = 0; s < 3; ++s) {
      std::remove((path + ".shard-" + std::to_string(s)).c_str());
    }
  }
}

TEST(ShardedLakeIndexTest, Sq8ManifestRoundTrip) {
  const size_t dim = 12;
  Corpus corpus = MakeCorpus(40, dim, 9);
  IndexOptions options;
  options.storage = Storage::kSq8;
  ShardedLakeIndex index = BuildSharded(corpus, dim, 3, options);
  std::string path = testing::TempDir() + "/tsfm_sharded_sq8.laks";
  ThreadPool pool(3);
  ASSERT_TRUE(index.Save(path, &pool).ok());

  auto loaded = ShardedLakeIndex::Load(path, &pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().options().storage, Storage::kSq8);
  EXPECT_EQ(loaded.value().num_tables(), corpus.tables.size());
  // Shard files persist codec + codes, so the loaded index ranks exactly
  // like the writer.
  for (const auto& q : corpus.join_queries) {
    EXPECT_EQ(loaded.value().QueryJoinable(q, 5), index.QueryJoinable(q, 5));
  }
  for (const auto& q : corpus.union_queries) {
    EXPECT_EQ(loaded.value().QueryUnionable(q, 5), index.QueryUnionable(q, 5));
  }
  std::remove(path.c_str());
  for (size_t s = 0; s < 3; ++s) {
    std::remove((path + ".shard-" + std::to_string(s)).c_str());
  }
}

TEST(ShardedLakeIndexTest, MixedStorageShardsRejected) {
  // A manifest that says sq8 but points at a float32 shard file (or vice
  // versa) is corrupt; loading must fail with a clear ParseError, not
  // silently mix representations.
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(30, dim, 10);
  IndexOptions sq8;
  sq8.storage = Storage::kSq8;
  ShardedLakeIndex index = BuildSharded(corpus, dim, 3, sq8);
  std::string path = testing::TempDir() + "/tsfm_sharded_mixed.laks";
  ASSERT_TRUE(index.Save(path).ok());

  // Overwrite shard 1 with a float32 lake of the same dim.
  Rng rng(11);
  LakeIndex imposter(dim);
  imposter.AddTable("imposter", {RandomVec(&rng, dim)});
  ASSERT_TRUE(imposter.Save(path + ".shard-1").ok());

  auto loaded = ShardedLakeIndex::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().ToString().find("storage"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
  for (size_t s = 0; s < 3; ++s) {
    std::remove((path + ".shard-" + std::to_string(s)).c_str());
  }
}

TEST(ShardedLakeIndexTest, Sq8RecallAtTenVersusFloatFlat) {
  // Acceptance bar for quantized storage: after exact rescore, sharded sq8
  // recall@10 against the float32 flat gold standard is at least 0.99.
  const size_t dim = 32, k = 10;
  Corpus corpus = MakeCorpus(300, dim, 12);
  ShardedLakeIndex flat_gold =
      ShardedLakeIndex::FromSingle(BuildUnsharded(corpus, dim));
  IndexOptions sq8;
  sq8.storage = Storage::kSq8;
  for (size_t shards : {size_t{1}, size_t{4}}) {
    ShardedLakeIndex sharded = BuildSharded(corpus, dim, shards, sq8);
    double recall_sum = 0;
    for (const auto& q : corpus.join_queries) {
      auto gold = flat_gold.QueryJoinable(q, k);
      ASSERT_GE(gold.size(), k);
      recall_sum += RecallAtK(gold, sharded.QueryJoinable(q, k), k);
    }
    EXPECT_GE(recall_sum / static_cast<double>(corpus.join_queries.size()),
              0.99)
        << shards << " shards";
  }
}

TEST(ShardedLakeIndexTest, MissingShardFileIsAnErrorNotACrash) {
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(30, dim, 5);
  ShardedLakeIndex index = BuildSharded(corpus, dim, 3);
  std::string path = testing::TempDir() + "/tsfm_sharded_missing.laks";
  ASSERT_TRUE(index.Save(path).ok());
  ASSERT_EQ(std::remove((path + ".shard-1").c_str()), 0);
  auto loaded = ShardedLakeIndex::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
  std::remove((path + ".shard-0").c_str());
  std::remove((path + ".shard-2").c_str());
}

TEST(ShardedLakeIndexTest, TruncatedManifestIsAnErrorNotACrash) {
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(30, dim, 6);
  ShardedLakeIndex index = BuildSharded(corpus, dim, 2);
  std::string path = testing::TempDir() + "/tsfm_sharded_trunc.laks";
  ASSERT_TRUE(index.Save(path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  // Truncate at every prefix boundary that cuts the header or a shard name;
  // none may crash and all must fail.
  for (size_t keep : {size_t{6}, size_t{20}, bytes.size() / 2}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_FALSE(ShardedLakeIndex::Load(path).ok()) << "kept " << keep;
  }
  std::remove(path.c_str());
  std::remove((path + ".shard-0").c_str());
  std::remove((path + ".shard-1").c_str());
}

TEST(ShardedLakeIndexTest, HugeManifestTableCountIsAStatusNotAnAllocation) {
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(20, dim, 13);
  ShardedLakeIndex index = BuildSharded(corpus, dim, 2);
  const std::string name = "tsfm_sharded_huge_count.laks";
  const std::string path = testing::TempDir() + "/" + name;
  ASSERT_TRUE(index.Save(path).ok());
  // A version-3 manifest: magic, version, backend, metric, storage
  // (5 x u32), dim, live-table count and shard count (3 x u64), then each
  // shard file name as a u64 length plus its bytes; the table count
  // follows the names.
  size_t offset = 5 * sizeof(uint32_t) + 3 * sizeof(uint64_t);
  for (size_t s = 0; s < 2; ++s) {
    offset += sizeof(uint64_t) + (name + ".shard-" + std::to_string(s)).size();
  }
  const uint64_t huge = uint64_t{1} << 32;  // the largest count the format admits
  {
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    uint64_t count = 0;
    io.seekg(static_cast<std::streamoff>(offset));
    io.read(reinterpret_cast<char*>(&count), sizeof(count));
    ASSERT_EQ(count, corpus.tables.size()) << "the patch must hit the count";
    io.seekp(static_cast<std::streamoff>(offset));
    io.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_FALSE(LoadLakeManifest(path).ok());
  EXPECT_FALSE(ShardedLakeIndex::Load(path).ok());
  std::remove(path.c_str());
  for (size_t s = 0; s < 2; ++s) {
    std::remove((path + ".shard-" + std::to_string(s)).c_str());
  }
}

// Rewrites the manifest at `path` the way an older build wrote it: v1 (no
// storage word, float32 only) or v2 (storage word). Neither records the
// live-table count.
void RewriteManifestAsVersion(const std::string& path, uint32_t version) {
  auto parsed = LoadLakeManifest(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const LakeManifest& manifest = parsed.value();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  io::WritePod(out, kLakeManifestMagic);
  io::WritePod(out, version);
  io::WritePod(out, static_cast<uint32_t>(manifest.backend));
  io::WritePod(out, static_cast<uint32_t>(manifest.metric));
  if (version >= 2) io::WritePod(out, static_cast<uint32_t>(manifest.storage));
  io::WritePod(out, manifest.dim);
  io::WritePod(out, static_cast<uint64_t>(manifest.shard_files.size()));
  for (const std::string& name : manifest.shard_files) {
    io::WritePod(out, static_cast<uint64_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  io::WritePod(out, static_cast<uint64_t>(manifest.locator.size()));
  for (const auto& [shard, local] : manifest.locator) {
    io::WritePod(out, shard);
    io::WritePod(out, local);
  }
}

TEST(ShardedLakeIndexTest, OlderManifestVersionsLoad) {
  // No build writes LAKS v1 or v2 any more; a lake whose manifest an older
  // build wrote must still load and answer exactly as before.
  const size_t dim = 10;
  Corpus corpus = MakeCorpus(40, dim, 62);
  for (const auto& [version, storage] :
       {std::pair{1u, Storage::kFloat32}, std::pair{2u, Storage::kSq8}}) {
    IndexOptions options;
    options.storage = storage;
    ShardedLakeIndex index = BuildSharded(corpus, dim, 2, options);
    TempFile file("tsfm_sharded_manifest_v" + std::to_string(version) +
                  ".laks");
    ASSERT_TRUE(index.Save(file.path()).ok());
    RewriteManifestAsVersion(file.path(), version);
    uint32_t header[2] = {0, 0};
    std::ifstream(file.path(), std::ios::binary)
        .read(reinterpret_cast<char*>(header), sizeof(header));
    ASSERT_EQ(header[1], version);

    auto loaded = ShardedLakeIndex::Load(file.path());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().num_shards(), 2u);
    EXPECT_EQ(loaded.value().options().storage, storage);
    EXPECT_EQ(loaded.value().num_live_tables(), corpus.tables.size());
    for (const auto& q : corpus.join_queries) {
      EXPECT_EQ(loaded.value().QueryJoinable(q, 5), index.QueryJoinable(q, 5))
          << "v" << version;
    }
    for (const auto& q : corpus.union_queries) {
      EXPECT_EQ(loaded.value().QueryUnionable(q, 5),
                index.QueryUnionable(q, 5))
          << "v" << version;
    }
  }
}

TEST(ShardedLakeIndexTest, LegacyLak2FileLoadsAsOneShard) {
  const size_t dim = 10;
  Corpus corpus = MakeCorpus(25, dim, 7);
  LakeIndex single = BuildUnsharded(corpus, dim);
  std::string path = testing::TempDir() + "/tsfm_sharded_legacy_lak2.bin";
  ASSERT_TRUE(single.Save(path).ok());

  auto loaded = ShardedLakeIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_shards(), 1u);
  EXPECT_EQ(loaded.value().num_tables(), corpus.tables.size());
  ShardedLakeIndex reference = ShardedLakeIndex::FromSingle(std::move(single));
  for (const auto& q : corpus.join_queries) {
    EXPECT_EQ(loaded.value().QueryJoinable(q, 5), reference.QueryJoinable(q, 5));
  }
  std::remove(path.c_str());
}

TEST(ShardedLakeIndexTest, LegacyHeaderlessLakeFileLoadsAsOneShard) {
  // The oldest format: magic "LAKE", dim, table records, no backend
  // metadata. It must come up as a 1-shard flat index.
  std::string path = testing::TempDir() + "/tsfm_sharded_legacy_lake.bin";
  {
    std::ofstream out(path, std::ios::binary);
    uint32_t magic = 0x4c414b45;  // "LAKE"
    uint64_t dim = 2, num_tables = 2;
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    out.write(reinterpret_cast<const char*>(&num_tables), sizeof(num_tables));
    const std::vector<std::pair<std::string, std::vector<float>>> tables = {
        {"alpha", {1, 0}}, {"beta", {0, 1}}};
    for (const auto& [id, col] : tables) {
      uint64_t id_len = id.size(), num_cols = 1;
      out.write(reinterpret_cast<const char*>(&id_len), sizeof(id_len));
      out.write(id.data(), static_cast<std::streamsize>(id_len));
      out.write(reinterpret_cast<const char*>(&num_cols), sizeof(num_cols));
      out.write(reinterpret_cast<const char*>(col.data()),
                static_cast<std::streamsize>(col.size() * sizeof(float)));
    }
  }
  auto loaded = ShardedLakeIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_shards(), 1u);
  EXPECT_EQ(loaded.value().options().backend, IndexBackend::kFlat);
  auto ranked = loaded.value().QueryJoinable({1, 0}, 2);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0], "alpha");
  std::remove(path.c_str());
}

TEST(ShardedLakeIndexTest, GarbageAndMissingFilesRejected) {
  std::string path = testing::TempDir() + "/tsfm_sharded_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not an index of any vintage";
  }
  EXPECT_FALSE(ShardedLakeIndex::Load(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(ShardedLakeIndex::Load("/nonexistent/lake.laks").ok());
}

TEST(ShardedLakeIndexTest, HandlesAssignedInInsertionOrder) {
  const size_t dim = 4;
  ShardedLakeIndex index(dim, 4);
  Rng rng(8);
  for (size_t t = 0; t < 20; ++t) {
    size_t handle = index.AddTable("t" + std::to_string(t),
                                   {RandomVec(&rng, dim)});
    EXPECT_EQ(handle, t);
    EXPECT_EQ(index.table_id(handle), "t" + std::to_string(t));
  }
  size_t total = 0;
  for (size_t s = 0; s < index.num_shards(); ++s) total += index.shard_size(s);
  EXPECT_EQ(total, 20u);
}

TEST(ShardedLakeIndexTest, HugeKAnswersLikeEveryColumn) {
  // A k past the column count asks for everything. k * 3 and the churned
  // shards' m + dead over-fetch must saturate, not wrap (SIZE_MAX / 3 + 1
  // wraps k * 3 to 2), and the merge must not reserve k hits up front
  // (SIZE_MAX throws std::length_error).
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(40, dim, 9);
  ShardedLakeIndex lake(dim, 2);
  for (size_t t = 0; t < 30; ++t) {
    lake.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  lake.Seal();
  for (size_t t = 30; t < 40; ++t) {
    lake.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  for (size_t t : {3u, 17u, 22u, 33u}) {
    ASSERT_TRUE(lake.RemoveTable(corpus.ids[t]).ok());
  }
  ASSERT_TRUE(lake.churned());
  const size_t every_column = lake.num_columns();
  for (size_t k : {SIZE_MAX, SIZE_MAX / 3 + 1}) {
    for (const auto& q : corpus.join_queries) {
      EXPECT_EQ(lake.QueryJoinable(q, k), lake.QueryJoinable(q, every_column))
          << "k=" << k;
    }
    for (const auto& q : corpus.union_queries) {
      EXPECT_EQ(lake.QueryUnionable(q, k),
                lake.QueryUnionable(q, every_column))
          << "k=" << k;
    }
  }
}

TEST(ShardedLakeIndexTest, NonFiniteTableIsRejectedAndChangesNoRanking) {
  // One table holding a NaN and an inf, added first, used to change other
  // tables' answers: a NaN distance evicts real candidates from the top-k
  // heap, and SQ8 calibrates its range over every row. The coordinator now
  // rejects it before any shard sees it, so the lake answers exactly like
  // the clean one.
  const size_t dim = 16, k = 10;
  Rng rng(63);
  std::vector<std::vector<std::vector<float>>> tables(200);
  for (auto& table : tables) {
    table = {RandomVec(&rng, dim), RandomVec(&rng, dim)};
  }
  std::vector<std::vector<float>> join_queries;
  std::vector<std::vector<std::vector<float>>> union_queries;
  for (size_t q = 0; q < 20; ++q) {
    join_queries.push_back(RandomVec(&rng, dim));
    union_queries.push_back({RandomVec(&rng, dim), RandomVec(&rng, dim)});
  }
  std::vector<std::vector<float>> poisoned = {RandomVec(&rng, dim),
                                              RandomVec(&rng, dim)};
  poisoned[0][3] = std::numeric_limits<float>::quiet_NaN();
  poisoned[1][5] = std::numeric_limits<float>::infinity();

  for (Storage storage : {Storage::kFloat32, Storage::kSq8}) {
    for (Metric metric : {Metric::kCosine, Metric::kL2}) {
      IndexOptions options;
      options.storage = storage;
      options.metric = metric;
      ShardedLakeIndex clean(dim, 1, options);
      ShardedLakeIndex lake(dim, 1, options);
      LakeCoordinator& coordinator = lake;
      Status added = coordinator.AddTable("poisoned", poisoned);
      EXPECT_EQ(added.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(added.message().find("poisoned"), std::string::npos)
          << added.ToString();
      EXPECT_NE(added.message().find("component 3 is nan"), std::string::npos)
          << added.ToString();
      for (size_t t = 0; t < tables.size(); ++t) {
        clean.AddTable("table_" + std::to_string(t), tables[t]);
        lake.AddTable("table_" + std::to_string(t), tables[t]);
      }
      EXPECT_EQ(lake.num_tables(), clean.num_tables());
      for (const auto& q : join_queries) {
        EXPECT_EQ(lake.QueryJoinable(q, k), clean.QueryJoinable(q, k));
      }
      for (const auto& q : union_queries) {
        EXPECT_EQ(lake.QueryUnionable(q, k), clean.QueryUnionable(q, k));
      }
      // Queries through the coordinator surface get the same check.
      EXPECT_EQ(coordinator.QueryJoinable(poisoned[1], k).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(coordinator.QueryUnionable(poisoned, k).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(
          coordinator.QueryJoinable(std::vector<float>(dim + 1), k)
              .status()
              .code(),
          StatusCode::kInvalidArgument);
    }
  }
}

TEST(ShardedLakeIndexTest, EmptyIndexQueriesAreEmpty) {
  ShardedLakeIndex index(4, 3);
  EXPECT_TRUE(index.QueryJoinable({1, 0, 0, 0}, 5).empty());
  EXPECT_TRUE(index.QueryUnionable({{1, 0, 0, 0}}, 5).empty());
}

}  // namespace
}  // namespace tsfm::search
