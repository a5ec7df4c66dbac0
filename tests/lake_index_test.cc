#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <utility>

#include "search/lake_index.h"
#include "search/sharded_lake_index.h"
#include "util/thread_pool.h"

namespace tsfm::search {
namespace {

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

TEST(LakeIndexTest, FloatFilesStayOnVersionTwo) {
  // A float32 index must keep writing the exact version-2 header so
  // pre-sq8 readers keep loading it; only sq8 files get the new version.
  LakeIndex index = MakeToyIndex();
  std::string path = testing::TempDir() + "/tsfm_lake_v2check.bin";
  ASSERT_TRUE(index.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  uint32_t magic = 0, version = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  EXPECT_EQ(magic, 0x4c414b32u);  // "LAK2"
  EXPECT_EQ(version, 2u);
  auto loaded = LakeIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().options().storage, Storage::kFloat32);
  std::remove(path.c_str());
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

void PatchU64At(const std::string& path, size_t offset, uint64_t value) {
  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  io.seekp(static_cast<std::streamoff>(offset));
  io.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

// A version-2 float32 file: magic, version, backend, metric (4 x u32), the
// HNSW knobs m, ef_construction, ef_search, seed and the dim (5 x u64),
// then the table count (u64). The first record starts at byte 64 with its
// id length, the id bytes, then its column count.
constexpr size_t kFirstRecordOffset = 64;

// A flipped bit in an on-disk count must end in a Status, never in an
// allocation of the size it claims.
TEST(LakeIndexTest, HugeRecordIdLengthIsAStatusNotAnAllocation) {
  LakeIndex index = MakeToyIndex();
  std::string path = testing::TempDir() + "/tsfm_lake_huge_id.bin";
  ASSERT_TRUE(index.Save(path).ok());
  PatchU64At(path, kFirstRecordOffset, uint64_t{1} << 40);
  EXPECT_FALSE(LakeIndex::Load(path).ok());
  std::remove(path.c_str());
}

TEST(LakeIndexTest, HugeRecordColumnCountIsAStatusNotAnAllocation) {
  LakeIndex index = MakeToyIndex();
  std::string path = testing::TempDir() + "/tsfm_lake_huge_cols.bin";
  ASSERT_TRUE(index.Save(path).ok());
  const size_t id_len = std::string("sales_q1").size();
  PatchU64At(path, kFirstRecordOffset + sizeof(uint64_t) + id_len,
             uint64_t{1} << 40);
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
