#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <utility>

#include "search/lake_index.h"
#include "search/quantizer.h"
#include "search/sharded_lake_index.h"
#include "search/stream_io.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace tsfm::search {
namespace {

using testutil::Corpus;
using testutil::MakeCorpus;
using testutil::TempFile;

LakeIndex MakeToyIndex() {
  LakeIndex index(3);
  index.AddTable("sales_q1", {{1, 0, 0}, {0, 1, 0}});
  index.AddTable("sales_q2", {{0.9f, 0.1f, 0}, {0, 0.9f, 0.1f}});
  index.AddTable("weather", {{0, 0, 1}});
  return index;
}

TEST(LakeIndexTest, JoinQueryRanksByNearestColumn) {
  ShardedLakeIndex index = ShardedLakeIndex::FromSingle(MakeToyIndex());
  auto ranked = index.QueryJoinable({1, 0, 0}, 3);
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], "sales_q1");
  EXPECT_EQ(ranked[1], "sales_q2");
}

TEST(LakeIndexTest, UnionQueryUsesAllColumns) {
  ShardedLakeIndex index = ShardedLakeIndex::FromSingle(MakeToyIndex());
  auto ranked = index.QueryUnionable({{1, 0, 0}, {0, 1, 0}}, 3);
  ASSERT_GE(ranked.size(), 2u);
  // sales_q1 matches both query columns exactly.
  EXPECT_EQ(ranked[0], "sales_q1");
}

TEST(LakeIndexTest, RespectsK) {
  ShardedLakeIndex index = ShardedLakeIndex::FromSingle(MakeToyIndex());
  EXPECT_LE(index.QueryJoinable({1, 0, 0}, 1).size(), 1u);
}

TEST(LakeIndexTest, SaveLoadRoundTrip) {
  LakeIndex index = MakeToyIndex();
  std::string path = testing::TempDir() + "/tsfm_lake_index.bin";
  ASSERT_TRUE(index.Save(path).ok());

  auto loaded = LakeIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_tables(), 3u);
  EXPECT_EQ(loaded.value().dim(), 3u);
  auto ranked = ShardedLakeIndex::FromSingle(std::move(loaded).value())
                    .QueryJoinable({1, 0, 0}, 3);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0], "sales_q1");
  std::remove(path.c_str());
}

TEST(LakeIndexTest, SaveLoadRoundTripBothBackends) {
  for (auto backend : {search::IndexBackend::kFlat, search::IndexBackend::kHnsw}) {
    IndexOptions options;
    options.backend = backend;
    options.hnsw.ef_search = 96;
    LakeIndex index(3, options);
    index.AddTable("sales_q1", {{1, 0, 0}, {0, 1, 0}});
    index.AddTable("sales_q2", {{0.9f, 0.1f, 0}, {0, 0.9f, 0.1f}});
    index.AddTable("weather", {{0, 0, 1}});

    std::string path = testing::TempDir() + "/tsfm_lake_backend.bin";
    ASSERT_TRUE(index.Save(path).ok());
    auto loaded = LakeIndex::Load(path);
    ASSERT_TRUE(loaded.ok());
    // The backend choice survives the file format round trip.
    EXPECT_EQ(loaded.value().options().backend, backend);
    EXPECT_EQ(loaded.value().options().hnsw.ef_search, 96u);
    EXPECT_EQ(loaded.value().num_tables(), 3u);
    auto ranked = ShardedLakeIndex::FromSingle(std::move(loaded).value())
                      .QueryJoinable({1, 0, 0}, 3);
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked[0], "sales_q1");
    std::remove(path.c_str());
  }
}

TEST(LakeIndexTest, Sq8SaveLoadRoundTrip) {
  IndexOptions options;
  options.storage = Storage::kSq8;
  LakeIndex index(3, options);
  index.AddTable("sales_q1", {{1, 0, 0}, {0, 1, 0}});
  index.AddTable("sales_q2", {{0.9f, 0.1f, 0}, {0, 0.9f, 0.1f}});
  index.AddTable("weather", {{0, 0, 1}});

  std::string path = testing::TempDir() + "/tsfm_lake_sq8.bin";
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = LakeIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().options().storage, Storage::kSq8);
  EXPECT_EQ(loaded.value().num_tables(), 3u);
  // The restored index (persisted codec + replayed rows) must rank exactly
  // like the one that wrote the file.
  ShardedLakeIndex restored =
      ShardedLakeIndex::FromSingle(std::move(loaded).value());
  ShardedLakeIndex writer = ShardedLakeIndex::FromSingle(std::move(index));
  for (const std::vector<float> q :
       {std::vector<float>{1, 0, 0}, {0, 1, 0}, {0.5f, 0.5f, 0}}) {
    EXPECT_EQ(restored.QueryJoinable(q, 3), writer.QueryJoinable(q, 3));
  }
  std::remove(path.c_str());
}

TEST(LakeIndexTest, Sq8RoundTripFaithfulAfterPostTrainingAdds) {
  // Adds after the first query encode through the already-trained codec;
  // the file persists that codec, so the restored index must reproduce the
  // writer's results even though re-training over all rows would have
  // produced a different calibration.
  IndexOptions options;
  options.storage = Storage::kSq8;
  ShardedLakeIndex index(3, 1, options);
  index.AddTable("sales_q1", {{1, 0, 0}, {0, 1, 0}});
  (void)index.QueryJoinable({1, 0, 0}, 1);  // trains the codec
  index.AddTable("outlier", {{9, -9, 9}});  // outside the calibrated range

  std::string path = testing::TempDir() + "/tsfm_lake_sq8_posttrain.bin";
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = ShardedLakeIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const std::vector<float> q :
       {std::vector<float>{1, 0, 0}, {9, -9, 9}}) {
    EXPECT_EQ(loaded.value().QueryJoinable(q, 3), index.QueryJoinable(q, 3));
  }
  std::remove(path.c_str());
  std::remove((path + ".shard-0").c_str());
}

TEST(LakeIndexTest, FloatFilesWriteVersionFour) {
  // Every save writes the one current version, a plain float32 lake
  // included; the older versions stay readable (OlderVersionFilesLoad).
  LakeIndex index = MakeToyIndex();
  std::string path = testing::TempDir() + "/tsfm_lake_v4check.bin";
  ASSERT_TRUE(index.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  uint32_t magic = 0, version = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  EXPECT_EQ(magic, 0x4c414b32u);  // "LAK2"
  EXPECT_EQ(version, 4u);
  auto loaded = LakeIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().options().storage, Storage::kFloat32);
  std::remove(path.c_str());
}

// Writes `corpus` the way an older build did: LAK2 version 2 (no storage
// word, float32 only) or version 3 (storage word, then the CSQ8 codec when
// SQ8). Neither has the v4 churn section.
void WriteOldLak2(const std::string& path, uint32_t version, Storage storage,
                  const Corpus& corpus, size_t dim) {
  std::ofstream out(path, std::ios::binary);
  io::WritePod(out, uint32_t{0x4c414b32});  // "LAK2"
  io::WritePod(out, version);
  io::WritePod(out, static_cast<uint32_t>(IndexBackend::kFlat));
  io::WritePod(out, static_cast<uint32_t>(Metric::kCosine));
  if (version >= 3) io::WritePod(out, static_cast<uint32_t>(storage));
  const HnswOptions hnsw;
  io::WritePod(out, static_cast<uint64_t>(hnsw.m));
  io::WritePod(out, static_cast<uint64_t>(hnsw.ef_construction));
  io::WritePod(out, static_cast<uint64_t>(hnsw.ef_search));
  io::WritePod(out, hnsw.seed);
  io::WritePod(out, static_cast<uint64_t>(dim));
  if (storage == Storage::kSq8) {
    // The calibration a lake built from these rows trains at its first
    // query: every row, in insertion order.
    std::vector<float> rows;
    for (const auto& table : corpus.tables) {
      for (const auto& col : table) {
        rows.insert(rows.end(), col.begin(), col.end());
      }
    }
    ASSERT_TRUE(Sq8Codec::Train(rows.data(), rows.size() / dim, dim)
                    .Save(out)
                    .ok());
  }
  io::WritePod(out, static_cast<uint64_t>(corpus.tables.size()));
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    io::WritePod(out, static_cast<uint64_t>(corpus.ids[t].size()));
    out.write(corpus.ids[t].data(),
              static_cast<std::streamsize>(corpus.ids[t].size()));
    io::WritePod(out, static_cast<uint64_t>(corpus.tables[t].size()));
    for (const auto& col : corpus.tables[t]) {
      out.write(reinterpret_cast<const char*>(col.data()),
                static_cast<std::streamsize>(col.size() * sizeof(float)));
    }
  }
}

TEST(LakeIndexTest, OlderVersionFilesLoad) {
  // No build writes LAK2 v2 or v3 any more; files from the builds that did
  // must still load and answer exactly like a lake built from their rows.
  const size_t dim = 12;
  Corpus corpus = MakeCorpus(40, dim, 61);
  for (const auto& [version, storage] :
       {std::pair{2u, Storage::kFloat32}, std::pair{3u, Storage::kSq8}}) {
    TempFile file("tsfm_lake_v" + std::to_string(version) + ".lak2");
    WriteOldLak2(file.path(), version, storage, corpus, dim);
    auto loaded = LakeIndex::Load(file.path());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().options().storage, storage);
    EXPECT_EQ(loaded.value().num_tables(), corpus.tables.size());

    IndexOptions options;
    options.storage = storage;
    LakeIndex built(dim, options);
    for (size_t t = 0; t < corpus.tables.size(); ++t) {
      built.AddTable(corpus.ids[t], corpus.tables[t]);
    }
    ShardedLakeIndex restored =
        ShardedLakeIndex::FromSingle(std::move(loaded).value());
    ShardedLakeIndex reference = ShardedLakeIndex::FromSingle(std::move(built));
    for (const auto& q : corpus.join_queries) {
      EXPECT_EQ(restored.QueryJoinable(q, 5), reference.QueryJoinable(q, 5))
          << "v" << version;
    }
    for (const auto& q : corpus.union_queries) {
      EXPECT_EQ(restored.QueryUnionable(q, 5), reference.QueryUnionable(q, 5))
          << "v" << version;
    }
  }
}

TEST(LakeIndexTest, NonFiniteRowFailsToLoadNamingTheTable) {
  // A shard stores whatever its coordinator let through, but a file is
  // outside input: Load checks every record.
  LakeIndex index = MakeToyIndex();
  index.AddTable("poisoned", {{1, std::nanf(""), 0}});
  TempFile file("tsfm_lake_nan_row.lak2");
  ASSERT_TRUE(index.Save(file.path()).ok());
  auto loaded = LakeIndex::Load(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  const std::string message = loaded.status().ToString();
  EXPECT_NE(message.find(file.path()), std::string::npos) << message;
  EXPECT_NE(message.find("poisoned"), std::string::npos) << message;
  EXPECT_NE(message.find("nan"), std::string::npos) << message;
}

TEST(LakeIndexTest, LoadsLegacyHeaderlessFormat) {
  // Files written before the versioned header: magic "LAKE", then dim and
  // the table records, with no backend metadata. They must load as flat.
  std::string path = testing::TempDir() + "/tsfm_lake_legacy.bin";
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
  auto loaded = LakeIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().options().backend, search::IndexBackend::kFlat);
  EXPECT_EQ(loaded.value().num_tables(), 2u);
  auto ranked = ShardedLakeIndex::FromSingle(std::move(loaded).value())
                    .QueryJoinable({1, 0}, 2);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0], "alpha");
  std::remove(path.c_str());
}

TEST(LakeIndexTest, BatchQueriesMatchSerial) {
  ShardedLakeIndex index = ShardedLakeIndex::FromSingle(MakeToyIndex());
  std::vector<std::vector<float>> join_queries = {
      {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  std::vector<std::vector<std::vector<float>>> union_queries = {
      {{1, 0, 0}, {0, 1, 0}}, {{0, 0, 1}}};
  ThreadPool pool(2);
  auto join_batch = index.QueryJoinableBatch(join_queries, 3, &pool);
  ASSERT_EQ(join_batch.size(), join_queries.size());
  for (size_t q = 0; q < join_queries.size(); ++q) {
    EXPECT_EQ(join_batch[q], index.QueryJoinable(join_queries[q], 3));
  }
  auto union_batch = index.QueryUnionableBatch(union_queries, 3, &pool);
  ASSERT_EQ(union_batch.size(), union_queries.size());
  for (size_t q = 0; q < union_queries.size(); ++q) {
    EXPECT_EQ(union_batch[q], index.QueryUnionable(union_queries[q], 3));
  }
}

TEST(LakeIndexTest, LoadRejectsGarbage) {
  std::string path = testing::TempDir() + "/tsfm_lake_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage bytes here";
  }
  EXPECT_FALSE(LakeIndex::Load(path).ok());
  std::remove(path.c_str());
}

TEST(LakeIndexTest, LoadRejectsMissingFile) {
  EXPECT_FALSE(LakeIndex::Load("/nonexistent/lake.bin").ok());
}

uint64_t ReadU64At(const std::string& path, size_t offset) {
  std::ifstream in(path, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(offset));
  uint64_t value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  return value;
}

void PatchU64At(const std::string& path, size_t offset, uint64_t value) {
  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  io.seekp(static_cast<std::streamoff>(offset));
  io.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

// A version-4 float32 file: magic, version, backend, metric, storage
// (5 x u32), the HNSW knobs m, ef_construction, ef_search, seed and the dim
// (5 x u64), the churn section of an unchurned lake (base table count and
// tombstone count, 2 x u64, no handles), then the table count (u64). The
// first record starts at byte 84 with its id length, the id bytes, then
// its column count.
constexpr size_t kFirstRecordOffset = 84;

// A flipped bit in an on-disk count must end in a Status, never in an
// allocation of the size it claims.
TEST(LakeIndexTest, HugeRecordIdLengthIsAStatusNotAnAllocation) {
  LakeIndex index = MakeToyIndex();
  std::string path = testing::TempDir() + "/tsfm_lake_huge_id.bin";
  ASSERT_TRUE(index.Save(path).ok());
  ASSERT_EQ(ReadU64At(path, kFirstRecordOffset), std::string("sales_q1").size())
      << "the patch must hit the first record's id length";
  PatchU64At(path, kFirstRecordOffset, uint64_t{1} << 40);
  EXPECT_FALSE(LakeIndex::Load(path).ok());
  std::remove(path.c_str());
}

TEST(LakeIndexTest, HugeRecordColumnCountIsAStatusNotAnAllocation) {
  LakeIndex index = MakeToyIndex();
  std::string path = testing::TempDir() + "/tsfm_lake_huge_cols.bin";
  ASSERT_TRUE(index.Save(path).ok());
  const size_t id_len = std::string("sales_q1").size();
  const size_t offset = kFirstRecordOffset + sizeof(uint64_t) + id_len;
  ASSERT_EQ(ReadU64At(path, offset), 2u)
      << "the patch must hit the first record's column count";
  PatchU64At(path, offset, uint64_t{1} << 40);
  EXPECT_FALSE(LakeIndex::Load(path).ok());
  std::remove(path.c_str());
}

TEST(LakeIndexTest, EmptyIndexQueriesAreEmpty) {
  ShardedLakeIndex index(4, 1);
  EXPECT_TRUE(index.QueryJoinable({1, 0, 0, 0}, 5).empty());
  EXPECT_TRUE(index.QueryUnionable({{1, 0, 0, 0}}, 5).empty());
}

}  // namespace
}  // namespace tsfm::search
