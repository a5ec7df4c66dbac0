#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "search/lake_index.h"
#include "search/quantizer.h"
#include "search/sharded_lake_index.h"
#include "search/stream_io.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tsfm::search {
namespace {

using testutil::Corpus;
using testutil::MakeCorpus;
using testutil::ReadAll;
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

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

using Tables =
    std::vector<std::pair<std::string, std::vector<std::vector<float>>>>;

// The bytes Save must write for an unchurned flat lake of `tables`: the
// LAK2 v5 header, for SQ8 the codec trained over the rows of the first
// `trained_tables` tables, the churn section (every table in the base, no
// tombstones), then each record with its rows exactly as added.
std::string ExpectedFlatFile(Storage storage, size_t dim, const Tables& tables,
                             size_t trained_tables) {
  std::ostringstream out;
  io::WritePod(out, uint32_t{0x4c414b32});  // "LAK2"
  io::WritePod(out, uint32_t{5});
  io::WritePod(out, static_cast<uint32_t>(IndexBackend::kFlat));
  io::WritePod(out, static_cast<uint32_t>(Metric::kCosine));
  io::WritePod(out, static_cast<uint32_t>(storage));
  const HnswOptions hnsw;
  io::WritePod(out, static_cast<uint64_t>(hnsw.m));
  io::WritePod(out, static_cast<uint64_t>(hnsw.ef_construction));
  io::WritePod(out, static_cast<uint64_t>(hnsw.ef_search));
  io::WritePod(out, hnsw.seed);
  io::WritePod(out, static_cast<uint64_t>(dim));
  if (storage == Storage::kSq8) {
    std::vector<float> rows;
    for (size_t t = 0; t < trained_tables; ++t) {
      for (const auto& col : tables[t].second) {
        rows.insert(rows.end(), col.begin(), col.end());
      }
    }
    EXPECT_TRUE(Sq8Codec::Train(rows.data(), rows.size() / dim, dim)
                    .Save(out)
                    .ok());
  }
  io::WritePod(out, static_cast<uint64_t>(tables.size()));  // base tables
  io::WritePod(out, uint64_t{0});                           // tombstones
  io::WritePod(out, static_cast<uint64_t>(tables.size()));
  for (const auto& [id, columns] : tables) {
    io::WritePod(out, static_cast<uint64_t>(id.size()));
    out.write(id.data(), static_cast<std::streamsize>(id.size()));
    io::WritePod(out, static_cast<uint64_t>(columns.size()));
    for (const auto& col : columns) {
      out.write(reinterpret_cast<const char*>(col.data()),
                static_cast<std::streamsize>(col.size() * sizeof(float)));
    }
  }
  return out.str();
}

TEST(LakeIndexTest, FlatFilesWriteVersionFive) {
  // Every save writes the one current version. A flat file is version 4's
  // layout under version word 5, with the rows read back from the
  // segment. The last table is added after a query trained the SQ8 codec
  // and lies outside its range: its record must still hold the floats as
  // added, not their decoded codes, and the codec must be the one trained
  // over the first two tables.
  const Tables tables = {{"sales_q1", {{1, 0, 0}, {0, 1, 0}}},
                         {"sales_q2", {{0.9f, 0.1f, 0}, {0, 0.9f, 0.1f}}},
                         {"outlier", {{9, -9, 9}}}};
  for (auto storage : {Storage::kFloat32, Storage::kSq8}) {
    IndexOptions options;
    options.storage = storage;
    LakeIndex index(3, options);
    index.AddTable(tables[0].first, tables[0].second);
    index.AddTable(tables[1].first, tables[1].second);
    ASSERT_TRUE(index.SearchColumnsBatch({{1, 0, 0}}, 1, nullptr).ok());
    index.AddTable(tables[2].first, tables[2].second);
    TempFile file("tsfm_lake_v5_flat.lak2");
    ASSERT_TRUE(index.Save(file.path()).ok());
    EXPECT_EQ(ReadAll(file.path()),
              ExpectedFlatFile(storage, 3, tables, /*trained_tables=*/2))
        << "storage " << static_cast<int>(storage);
    auto loaded = LakeIndex::Load(file.path());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().options().storage, storage);
  }
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
  // AddTable refuses non-finite rows, but a file is outside input: Load
  // checks every record. Poison a saved file by overwriting a sentinel
  // component that occurs nowhere else in it.
  LakeIndex index = MakeToyIndex();
  const float sentinel = 1234.5f;
  index.AddTable("poisoned", {{1, sentinel, 0}});
  TempFile file("tsfm_lake_nan_row.lak2");
  ASSERT_TRUE(index.Save(file.path()).ok());
  std::string bytes = ReadAll(file.path());
  const std::string needle(reinterpret_cast<const char*>(&sentinel),
                           sizeof(sentinel));
  const size_t at = bytes.find(needle);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(needle, at + 1), std::string::npos);
  const float nan = std::nanf("");
  bytes.replace(at, sizeof(nan), reinterpret_cast<const char*>(&nan),
                sizeof(nan));
  WriteAll(file.path(), bytes);
  auto loaded = LakeIndex::Load(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  const std::string message = loaded.status().ToString();
  EXPECT_NE(message.find(file.path()), std::string::npos) << message;
  EXPECT_NE(message.find("poisoned"), std::string::npos) << message;
  EXPECT_NE(message.find("nan"), std::string::npos) << message;
}

TEST(LakeIndexDeathTest, AddTableCheckFailsOnNonFiniteRow) {
  // Save writes what the segments hold, so a stored NaN would make a file
  // that Load refuses: AddTable stops it at the door, naming the table.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  LakeIndex index(3);
  EXPECT_DEATH(index.AddTable("poisoned", {{1, std::nanf(""), 0}}),
               "poisoned.*component 1 is nan");
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

// A version-5 float32 file: magic, version, backend, metric, storage
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

// ------------------------------------------------- HNSW files (v5 graph)

// A HNSW lake of `corpus`; when `churn`, sealed and then given delta
// tables and tombstones in both segments.
LakeIndex MakeHnswLake(const Corpus& corpus, size_t dim, Metric metric,
                       bool churn) {
  IndexOptions options;
  options.backend = IndexBackend::kHnsw;
  options.metric = metric;
  options.hnsw.ef_search = 128;
  LakeIndex index(dim, options);
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    index.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  if (churn) {
    index.Seal();
    Rng rng(81);
    for (size_t t = 0; t < 6; ++t) {
      std::vector<std::vector<float>> cols(1 + t % 2);
      for (auto& col : cols) col = testutil::RandomVec(&rng, dim);
      index.AddTable("delta_" + std::to_string(t), cols);
    }
    for (const char* id : {"table_1", "table_8", "delta_2", "delta_5"}) {
      EXPECT_TRUE(index.RemoveTable(id).ok()) << id;
    }
  }
  return index;
}

void ExpectSameCounts(const LakeIndex& a, const LakeIndex& b) {
  const ShardCounts x = a.Counts(), y = b.Counts();
  EXPECT_EQ(x.tables, y.tables);
  EXPECT_EQ(x.live_tables, y.live_tables);
  EXPECT_EQ(x.columns, y.columns);
  EXPECT_EQ(x.pending_delta_tables, y.pending_delta_tables);
  EXPECT_EQ(x.pending_tombstones, y.pending_tombstones);
}

TEST(LakeIndexTest, HnswRoundTripAnswersIdentically) {
  // The file carries the graph, so the loaded lake is the saved one: the
  // same answers under both metrics, with and without churn.
  const size_t dim = 12;
  Corpus corpus = MakeCorpus(60, dim, 71);
  for (auto metric : {Metric::kCosine, Metric::kL2}) {
    for (bool churn : {false, true}) {
      SCOPED_TRACE(testing::Message() << "metric " << static_cast<int>(metric)
                                      << " churn " << churn);
      LakeIndex index = MakeHnswLake(corpus, dim, metric, churn);
      TempFile file("tsfm_lake_hnsw_roundtrip.lak2");
      ASSERT_TRUE(index.Save(file.path()).ok());
      auto loaded = LakeIndex::Load(file.path());
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(loaded.value().options().backend, IndexBackend::kHnsw);
      EXPECT_EQ(loaded.value().options().metric, metric);
      ExpectSameCounts(loaded.value(), index);
      ShardedLakeIndex restored =
          ShardedLakeIndex::FromSingle(std::move(loaded).value());
      ShardedLakeIndex writer = ShardedLakeIndex::FromSingle(std::move(index));
      for (const auto& q : corpus.join_queries) {
        EXPECT_EQ(restored.QueryJoinable(q, 5), writer.QueryJoinable(q, 5));
      }
      for (const auto& q : corpus.union_queries) {
        EXPECT_EQ(restored.QueryUnionable(q, 5), writer.QueryUnionable(q, 5));
      }
    }
  }
}

TEST(LakeIndexTest, LoadedHnswLakeTakesAddsAndCompacts) {
  // A restored graph is a live base: a new table lands in the delta and
  // ranks first at once, and a compaction rebuilds the graph over base and
  // delta within the HNSW recall bound.
  const size_t dim = 16, k = 10;
  Corpus corpus = MakeCorpus(200, dim, 73);
  TempFile file("tsfm_lake_hnsw_adds.lak2");
  ASSERT_TRUE(MakeHnswLake(corpus, dim, Metric::kCosine, /*churn=*/false)
                  .Save(file.path())
                  .ok());
  auto loaded = LakeIndex::Load(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ShardedLakeIndex lake = ShardedLakeIndex::FromSingle(std::move(loaded).value());
  Rng rng(74);
  const std::vector<float> probe = testutil::RandomVec(&rng, dim);
  lake.AddTable("probe", {probe});
  EXPECT_EQ(lake.pending_delta_tables(), 1u);
  ASSERT_FALSE(lake.QueryJoinable(probe, 1).empty());
  EXPECT_EQ(lake.QueryJoinable(probe, 1)[0], "probe");

  ASSERT_TRUE(lake.Compact().ok());
  EXPECT_EQ(lake.pending_delta_tables(), 0u);
  EXPECT_EQ(lake.num_tables(), corpus.tables.size() + 1);
  ShardedLakeIndex flat_gold(dim, 1);
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    flat_gold.AddTable(corpus.ids[t], corpus.tables[t]);
  }
  flat_gold.AddTable("probe", {probe});
  double recall_sum = 0;
  for (const auto& q : corpus.join_queries) {
    recall_sum += testutil::RecallAtK(flat_gold.QueryJoinable(q, k),
                                      lake.QueryJoinable(q, k), k);
  }
  EXPECT_GE(recall_sum / static_cast<double>(corpus.join_queries.size()), 0.95);
}

template <typename T>
T PodAt(const std::string& bytes, size_t at) {
  T value{};
  if (at + sizeof(T) <= bytes.size()) {
    std::memcpy(&value, bytes.data() + at, sizeof(T));
  } else {
    ADD_FAILURE() << "read past the end of the file at " << at;
  }
  return value;
}

template <typename T>
void PatchAt(std::string* bytes, size_t at, T value) {
  ASSERT_LE(at + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + at, &value, sizeof(T));
}

// Section boundaries of a LAK2 v5 file without a codec section (float32
// or HNSW): a 60-byte header (five u32 words, five u64 words), the churn
// section (base table count, tombstone count, the tombstoned handles),
// the records (table count, then per table the id length, the id, the
// column count and the rows), then for HNSW the graph.
struct Sections {
  size_t header_end = 60;
  size_t churn_end = 0;
  size_t records_end = 0;
};

Sections FindSections(const std::string& bytes, size_t dim) {
  Sections s;
  s.churn_end = s.header_end + 2 * sizeof(uint64_t) +
                sizeof(uint64_t) * PodAt<uint64_t>(bytes, s.header_end + 8);
  const uint64_t tables = PodAt<uint64_t>(bytes, s.churn_end);
  size_t at = s.churn_end + sizeof(uint64_t);
  for (uint64_t t = 0; t < tables && at < bytes.size(); ++t) {
    at += sizeof(uint64_t) + PodAt<uint64_t>(bytes, at);  // id
    at += sizeof(uint64_t) + PodAt<uint64_t>(bytes, at) * dim * sizeof(float);
  }
  s.records_end = at;
  return s;
}

// One node of the graph section: the offset of its level word, the level,
// and per layer the offset of its first neighbour id and the id count.
struct GraphNode {
  size_t level_at = 0;
  int32_t level = 0;
  std::vector<std::pair<size_t, uint64_t>> layers;
};

// Walks the graph section at `at` (max level i32, entry point u32, then
// per node its level i32 and per layer a u64 count and u32 ids).
std::vector<GraphNode> ParseGraph(const std::string& bytes, size_t at,
                                  size_t nodes) {
  std::vector<GraphNode> graph(nodes);
  at += sizeof(int32_t) + sizeof(uint32_t);
  for (GraphNode& node : graph) {
    node.level_at = at;
    node.level = PodAt<int32_t>(bytes, at);
    at += sizeof(int32_t);
    for (int32_t l = 0; l <= node.level && at < bytes.size(); ++l) {
      const uint64_t count = PodAt<uint64_t>(bytes, at);
      at += sizeof(uint64_t);
      node.layers.emplace_back(at, count);
      at += count * sizeof(uint32_t);
    }
  }
  EXPECT_EQ(at, bytes.size()) << "the graph is the last section";
  return graph;
}

TEST(LakeIndexTest, CorruptHnswGraphIsAParseErrorNamingTheFile) {
  // Load reads the stored graph instead of rebuilding it, so it must
  // reject every graph Search could not walk safely.
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(40, dim, 75);
  size_t nodes = 0;
  for (const auto& table : corpus.tables) nodes += table.size();
  ASSERT_LT(nodes, 1000u);
  TempFile file("tsfm_lake_hnsw_corrupt.lak2");
  ASSERT_TRUE(MakeHnswLake(corpus, dim, Metric::kCosine, /*churn=*/false)
                  .Save(file.path())
                  .ok());
  const std::string bytes = ReadAll(file.path());
  ASSERT_EQ(PodAt<uint32_t>(bytes, 4), 5u);
  const size_t graph_at = FindSections(bytes, dim).records_end;
  const std::vector<GraphNode> graph = ParseGraph(bytes, graph_at, nodes);
  ASSERT_TRUE(LakeIndex::Load(file.path()).ok());

  // A level-0 node, and an upper-layer list to point at it.
  size_t flat_node = nodes, upper_list = 0;
  for (size_t v = 0; v < graph.size(); ++v) {
    if (graph[v].level == 0 && flat_node == nodes) flat_node = v;
    if (graph[v].level >= 1 && graph[v].layers[1].second > 0 &&
        upper_list == 0) {
      upper_list = graph[v].layers[1].first;
    }
  }
  ASSERT_LT(flat_node, nodes);
  ASSERT_NE(upper_list, 0u);
  size_t bottom_list = 0;
  for (const GraphNode& node : graph) {
    if (node.layers[0].second > 0) {
      bottom_list = node.layers[0].first;
      break;
    }
  }
  ASSERT_NE(bottom_list, 0u);

  const struct {
    const char* name;
    size_t at;
    uint32_t value;
  } cases[] = {
      {"bogus entry point", graph_at + sizeof(int32_t), 1000},
      {"neighbour id out of range", bottom_list, static_cast<uint32_t>(nodes)},
      {"neighbour below its layer", upper_list,
       static_cast<uint32_t>(flat_node)},
      {"level 65", graph[0].level_at, 65},
  };
  for (const auto& c : cases) {
    std::string corrupt = bytes;
    PatchAt(&corrupt, c.at, c.value);
    WriteAll(file.path(), corrupt);
    auto loaded = LakeIndex::Load(file.path());
    ASSERT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << c.name;
    EXPECT_NE(loaded.status().ToString().find(file.path()), std::string::npos)
        << c.name << ": " << loaded.status().ToString();
  }
}

TEST(LakeIndexTest, TruncatedHnswFileIsAStatusAtEverySection) {
  const size_t dim = 8;
  Corpus corpus = MakeCorpus(30, dim, 77);
  TempFile file("tsfm_lake_hnsw_truncated.lak2");
  ASSERT_TRUE(MakeHnswLake(corpus, dim, Metric::kCosine, /*churn=*/true)
                  .Save(file.path())
                  .ok());
  const std::string bytes = ReadAll(file.path());
  const Sections s = FindSections(bytes, dim);
  ASSERT_GT(s.churn_end, s.header_end + 2 * sizeof(uint64_t))
      << "the churned file must list tombstones";
  ASSERT_LT(s.records_end, bytes.size()) << "the graph must follow the records";
  for (size_t keep : {s.header_end - 1, s.header_end, s.churn_end - 1,
                      s.churn_end, s.records_end - 1, s.records_end,
                      s.records_end + 4, bytes.size() - 1}) {
    WriteAll(file.path(), bytes.substr(0, keep));
    EXPECT_FALSE(LakeIndex::Load(file.path()).ok()) << "kept " << keep;
  }
}

TEST(LakeIndexTest, EmptyIndexQueriesAreEmpty) {
  ShardedLakeIndex index(4, 1);
  EXPECT_TRUE(index.QueryJoinable({1, 0, 0, 0}, 5).empty());
  EXPECT_TRUE(index.QueryUnionable({{1, 0, 0, 0}}, 5).empty());
}

}  // namespace
}  // namespace tsfm::search
