#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>

#include "sketch/content_snapshot.h"
#include "sketch/minhash.h"
#include "sketch/minhash_lsh.h"
#include "sketch/numerical_sketch.h"
#include "sketch/simhash.h"
#include "sketch/table_sketch.h"
#include "util/random.h"

namespace tsfm {
namespace {

std::vector<std::string> MakeSet(int start, int count) {
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) out.push_back("item_" + std::to_string(start + i));
  return out;
}

// ---------------------------------------------------------------- MinHash

TEST(MinHashTest, IdenticalSetsEstimateOne) {
  auto s = MakeSet(0, 50);
  MinHash a = MinHashOfSet(s, 64);
  MinHash b = MinHashOfSet(s, 64);
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 1.0);
  EXPECT_EQ(a.HammingDistance(b), 0u);
}

TEST(MinHashTest, DisjointSetsEstimateNearZero) {
  MinHash a = MinHashOfSet(MakeSet(0, 50), 64);
  MinHash b = MinHashOfSet(MakeSet(1000, 50), 64);
  EXPECT_LT(a.EstimateJaccard(b), 0.1);
}

TEST(MinHashTest, InsertionOrderIrrelevant) {
  auto s = MakeSet(0, 30);
  MinHash a(32), b(32);
  a.UpdateAll(s);
  std::reverse(s.begin(), s.end());
  b.UpdateAll(s);
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 1.0);
}

TEST(MinHashTest, DuplicatesDoNotChangeSignature) {
  MinHash a(32), b(32);
  a.UpdateAll({"x", "y"});
  b.UpdateAll({"x", "y", "x", "y", "x"});
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 1.0);
}

TEST(MinHashTest, EmptySignatures) {
  MinHash a(16), b(16);
  EXPECT_TRUE(a.empty());
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 1.0);  // both empty = both the empty set
  b.Update("x");
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 0.0);
}

TEST(MinHashTest, MergeEqualsUnion) {
  auto s1 = MakeSet(0, 30);
  auto s2 = MakeSet(20, 30);  // overlap 10
  MinHash a = MinHashOfSet(s1, 64);
  a.Merge(MinHashOfSet(s2, 64));
  std::vector<std::string> u = s1;
  u.insert(u.end(), s2.begin(), s2.end());
  MinHash direct = MinHashOfSet(u, 64);
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(direct), 1.0);
}

TEST(MinHashTest, ToFloatsInUnitRange) {
  MinHash a = MinHashOfSet(MakeSet(0, 10), 16);
  auto f = a.ToFloats();
  ASSERT_EQ(f.size(), 16u);
  for (float v : f) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

// Property sweep: estimation error bounded by ~3/sqrt(K) across overlap
// levels (standard MinHash variance bound, 3 sigma).
class MinHashAccuracyTest : public testing::TestWithParam<int> {};

TEST_P(MinHashAccuracyTest, EstimatesTrueJaccard) {
  const int overlap = GetParam();
  const int n = 200;
  auto a_set = MakeSet(0, n);
  auto b_set = MakeSet(n - overlap, n);  // |A ∩ B| = overlap
  double true_jaccard = static_cast<double>(overlap) / (2 * n - overlap);
  const size_t num_perm = 256;
  MinHash a = MinHashOfSet(a_set, num_perm);
  MinHash b = MinHashOfSet(b_set, num_perm);
  double bound = 3.0 / std::sqrt(static_cast<double>(num_perm));
  EXPECT_NEAR(a.EstimateJaccard(b), true_jaccard, bound);
}

INSTANTIATE_TEST_SUITE_P(OverlapLevels, MinHashAccuracyTest,
                         testing::Values(0, 20, 50, 100, 150, 180, 200));

// ------------------------------------------------------- Numerical sketch

TEST(NumericalSketchTest, CompressStatMonotoneAndSigned) {
  EXPECT_LT(CompressStat(10), CompressStat(100));
  EXPECT_FLOAT_EQ(CompressStat(0), 0.0f);
  EXPECT_FLOAT_EQ(CompressStat(-5), -CompressStat(5));
  // Overflowed statistics saturate instead of reaching the encoder.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FLOAT_EQ(CompressStat(inf), CompressStat(DBL_MAX));
  EXPECT_FLOAT_EQ(CompressStat(-inf), -CompressStat(DBL_MAX));
  EXPECT_TRUE(std::isfinite(CompressStat(inf)));
  EXPECT_LT(CompressStat(1e308), CompressStat(inf));
  EXPECT_FLOAT_EQ(CompressStat(std::numeric_limits<double>::quiet_NaN()),
                  0.0f);
}

TEST(NumericalSketchTest, LayoutMatchesPaper) {
  Column col;
  col.name = "x";
  col.type = ColumnType::kInteger;
  col.cells = {"10", "20", "30", "40"};
  NumericalSketch s = MakeNumericalSketch(col);
  // Slot 0: unique fraction = 1.0 compressed.
  EXPECT_FLOAT_EQ(s.values[0], CompressStat(1.0));
  // Slot 14/15: min/max.
  EXPECT_FLOAT_EQ(s.values[14], CompressStat(10));
  EXPECT_FLOAT_EQ(s.values[15], CompressStat(40));
  // Percentiles are non-decreasing.
  for (int i = 4; i <= 11; ++i) {
    EXPECT_GE(s.values[i], s.values[i - 1]);
  }
}

TEST(NumericalSketchTest, StringColumnHasZeroNumericSlots) {
  Column col;
  col.name = "s";
  col.type = ColumnType::kString;
  col.cells = {"abc", "de"};
  NumericalSketch s = MakeNumericalSketch(col);
  for (int i = 3; i < 16; ++i) EXPECT_FLOAT_EQ(s.values[i], 0.0f);
  EXPECT_GT(s.values[2], 0.0f);  // width populated
}

TEST(NumericalSketchTest, DistinguishesShiftedDistributions) {
  Column a, b;
  a.type = b.type = ColumnType::kFloat;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    a.cells.push_back(std::to_string(rng.Normal(100, 10)));
    b.cells.push_back(std::to_string(rng.Normal(500, 10)));
  }
  NumericalSketch sa = MakeNumericalSketch(a);
  NumericalSketch sb = MakeNumericalSketch(b);
  EXPECT_GT(std::fabs(sa.values[12] - sb.values[12]), 0.5f);  // means differ
}

// -------------------------------------------------------- Content snapshot

TEST(ContentSnapshotTest, SubsetRowsOverlap) {
  Table t("t", "d");
  std::vector<std::string> col;
  for (int i = 0; i < 100; ++i) col.push_back("v" + std::to_string(i));
  t.AddColumn("c", col);

  Table sub = t.Slice({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {0});
  MinHash full = MakeContentSnapshot(t, 128);
  MinHash subset = MakeContentSnapshot(sub, 128);
  // Subset of rows -> containment -> nonzero jaccard.
  EXPECT_GT(full.EstimateJaccard(subset), 0.02);
}

TEST(ContentSnapshotTest, RowOrderInvariant) {
  Table t("t", "d");
  t.AddColumn("c", {"a", "b", "c", "d"});
  Table shuffled = t.WithRowOrder({3, 1, 0, 2});
  MinHash a = MakeContentSnapshot(t, 64);
  MinHash b = MakeContentSnapshot(shuffled, 64);
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 1.0);
}

TEST(ContentSnapshotTest, ColumnOrderChangesSnapshot) {
  Table t("t", "d");
  t.AddColumn("c1", {"a", "b"});
  t.AddColumn("c2", {"x", "y"});
  Table reordered = t.WithColumnOrder({1, 0});
  MinHash a = MakeContentSnapshot(t, 64);
  MinHash b = MakeContentSnapshot(reordered, 64);
  EXPECT_LT(a.EstimateJaccard(b), 0.5);  // row strings differ
}

// ------------------------------------------------------------ TableSketch

TEST(TableSketchTest, BuildsAllColumnSketches) {
  Table t("t", "sales table");
  t.AddColumn("product", {"widget a", "widget b", "widget a"});
  t.AddColumn("units", {"10", "20", "30"});
  t.InferTypes();
  TableSketch s = BuildTableSketch(t);
  ASSERT_EQ(s.columns.size(), 2u);
  EXPECT_EQ(s.columns[0].type, ColumnType::kString);
  EXPECT_EQ(s.columns[1].type, ColumnType::kInteger);
  EXPECT_FALSE(s.columns[0].word_minhash.empty());
  EXPECT_TRUE(s.columns[1].word_minhash.empty());  // numeric: no word sketch
  EXPECT_FALSE(s.content_snapshot.empty());
}

TEST(TableSketchTest, MinHashInputWidthIsFixed) {
  Table t("t", "d");
  t.AddColumn("s", {"a", "b"});
  t.AddColumn("n", {"1", "2"});
  t.InferTypes();
  SketchOptions opt;
  opt.num_perm = 16;
  TableSketch s = BuildTableSketch(t, opt);
  EXPECT_EQ(s.columns[0].MinHashInput().size(), 32u);
  EXPECT_EQ(s.columns[1].MinHashInput().size(), 32u);
}

TEST(TableSketchTest, DistinctCellsSkipsNullsAndDupes) {
  Column col;
  col.cells = {"a", "", "a", "NaN", "b"};
  auto cells = DistinctCells(col);
  EXPECT_EQ(cells.size(), 2u);
}

TEST(TableSketchTest, DistinctWordsLowercasesAndSplits) {
  Column col;
  col.cells = {"New York", "new jersey"};
  auto words = DistinctWords(col);
  // {new, york, jersey}
  EXPECT_EQ(words.size(), 3u);
}

// ---------------------------------------------------------------- SimHash

TEST(SimHashTest, IdenticalVectorsSameCode) {
  SimHasher h(8, 32);
  std::vector<float> v = {1, -2, 3, 0.5, -1, 2, 0, 1};
  EXPECT_EQ(h.Hash(v), h.Hash(v));
  EXPECT_EQ(h.HammingDistance(h.Hash(v), h.Hash(v)), 0);
}

TEST(SimHashTest, SimilarVectorsCloserThanRandom) {
  SimHasher h(16, 64);
  Rng rng(2);
  std::vector<float> a(16), near(16), far(16);
  for (size_t i = 0; i < 16; ++i) {
    a[i] = static_cast<float>(rng.Normal());
    near[i] = a[i] + 0.05f * static_cast<float>(rng.Normal());
    far[i] = static_cast<float>(rng.Normal());
  }
  int d_near = h.HammingDistance(h.Hash(a), h.Hash(near));
  int d_far = h.HammingDistance(h.Hash(a), h.Hash(far));
  EXPECT_LT(d_near, d_far);
}

// ------------------------------------------------------------ MinHash LSH

TEST(MinHashLshTest, FindsNearDuplicates) {
  MinHashLsh lsh(64, 16);
  auto base = MakeSet(0, 100);
  lsh.Insert("dup", MinHashOfSet(base, 64));
  lsh.Insert("other", MinHashOfSet(MakeSet(5000, 100), 64));

  auto mostly_same = MakeSet(0, 95);  // jaccard 0.95
  auto hits = lsh.Query(MinHashOfSet(mostly_same, 64));
  EXPECT_NE(std::find(hits.begin(), hits.end(), "dup"), hits.end());
  EXPECT_EQ(std::find(hits.begin(), hits.end(), "other"), hits.end());
}

TEST(MinHashLshTest, SizeCounts) {
  MinHashLsh lsh(32, 8);
  EXPECT_EQ(lsh.size(), 0u);
  lsh.Insert("a", MinHashOfSet(MakeSet(0, 10), 32));
  EXPECT_EQ(lsh.size(), 1u);
}

TEST(LshForestTest, RanksHighOverlapFirst) {
  LshForest forest(64, 8, 8);
  auto q = MakeSet(0, 100);
  forest.Insert("high", MinHashOfSet(MakeSet(0, 110), 64));    // ~0.9
  forest.Insert("low", MinHashOfSet(MakeSet(80, 100), 64));    // ~0.1
  forest.Insert("none", MinHashOfSet(MakeSet(9000, 100), 64));

  auto hits = forest.Query(MinHashOfSet(q, 64), 3);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0], "high");
}

TEST(LshForestTest, RespectsK) {
  LshForest forest(64, 4, 8);
  for (int i = 0; i < 20; ++i) {
    forest.Insert("t" + std::to_string(i), MinHashOfSet(MakeSet(0, 50), 64));
  }
  auto hits = forest.Query(MinHashOfSet(MakeSet(0, 50), 64), 5);
  EXPECT_LE(hits.size(), 5u);
}

}  // namespace
}  // namespace tsfm
