#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "lakebench/search_benchmarks.h"
#include "sketch/content_snapshot.h"
#include "sketch/minhash.h"
#include "sketch/minhash_lsh.h"
#include "sketch/numerical_sketch.h"
#include "sketch/simhash.h"
#include "sketch/table_sketch.h"
#include "util/hash.h"
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
  NumericalSketch s = MakeNumericalSketch(ComputeColumnStats(col));
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
  NumericalSketch s = MakeNumericalSketch(ComputeColumnStats(col));
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
  NumericalSketch sa = MakeNumericalSketch(ComputeColumnStats(a));
  NumericalSketch sb = MakeNumericalSketch(ComputeColumnStats(b));
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

TEST(TableSketchTest, DistinctCellsKeepFirstSeenOrderUpToTheCount) {
  Column col;
  col.cells = {"b", " NA ", "a", "b", "c"};
  EXPECT_EQ(DistinctCells(col, 2), (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(DistinctCells(col), (std::vector<std::string>{"b", "a", "c"}));
}

TEST(TableSketchTest, DistinctCellsArePrefixesOfTheProfile) {
  // DistinctCells walks on its own and stops early; it must still return
  // exactly the first n distinct cells of the full column walk.
  lakebench::WikiJoinScale join;
  join.num_tables = 20;
  join.num_queries = 2;
  lakebench::UnionSearchScale scale;
  scale.num_seeds = 3;
  scale.variants_per_seed = 4;
  scale.num_queries = 2;
  std::vector<Table> tables = lakebench::MakeWikiJoinSearch(join, 9).tables;
  for (Table& t : lakebench::MakeUnionSearch(lakebench::DomainCatalog(42, 200),
                                             scale, 9, "lake")
                      .tables) {
    tables.push_back(std::move(t));
  }
  size_t columns = 0;
  for (const Table& table : tables) {
    for (const Column& col : table.columns()) {
      ++columns;
      const std::vector<std::string_view> distinct = ProfileColumn(col).distinct;
      for (size_t n : {size_t{0}, size_t{1}, size_t{5}, distinct.size(),
                       kSketchCells}) {
        const size_t want = std::min(n, distinct.size());
        EXPECT_EQ(DistinctCells(col, n),
                  std::vector<std::string>(distinct.begin(),
                                           distinct.begin() + want))
            << table.id() << "." << col.name << " n=" << n;
      }
    }
  }
  EXPECT_GT(columns, 60u);
}

TEST(TableSketchTest, ProfileWordsLowercaseAndSplit) {
  Column col;
  col.cells = {"New York", "new jersey"};
  EXPECT_EQ(ProfileColumn(col).words,
            (std::unordered_set<std::string>{"new", "york", "jersey"}));
}

// ----------------------------------------------------------- Sketch bytes
// Pins every field BuildTableSketch writes. The integer fields (ids, names,
// types, MinHash slots and empty flags, the content snapshot) fold into one
// recorded digest. The 16 numerical floats are compared by bit pattern with
// the formulas below, which transcribe the column statistics as they stood
// when the digest was recorded: a compiler that contracts multiply-adds
// (GCC on arm64) changes the low bits of both sides alike, so the floats
// are checked on every target while the digest stays portable.

float ReferenceCompress(double v) {
  if (std::isnan(v)) return 0.0f;
  if (std::isinf(v)) v = v < 0 ? -DBL_MAX : DBL_MAX;
  double s = v < 0 ? -1.0 : 1.0;
  return static_cast<float>(s * std::log1p(std::fabs(v)));
}

double ReferencePercentile(const std::vector<double>& sorted, double q) {
  if (sorted.size() == 1) return sorted[0];
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::array<float, kNumericalSketchDim> ReferenceNumerical(const Column& column) {
  std::array<float, kNumericalSketchDim> out = {};
  const size_t rows = column.cells.size();
  if (rows == 0) return out;
  std::unordered_set<std::string> uniques;
  size_t nulls = 0;
  size_t non_null = 0;
  double width_sum = 0.0;
  std::vector<double> numeric;
  for (const auto& cell : column.cells) {
    if (IsNullToken(cell)) {
      ++nulls;
      continue;
    }
    ++non_null;
    uniques.insert(cell);
    width_sum += static_cast<double>(cell.size());
    if (column.type != ColumnType::kString) {
      auto v = NumericValue(cell, column.type);
      if (v) numeric.push_back(*v);
    }
  }
  out[0] = ReferenceCompress(static_cast<double>(uniques.size()) /
                             static_cast<double>(rows));
  out[1] = ReferenceCompress(static_cast<double>(nulls) / static_cast<double>(rows));
  out[2] = ReferenceCompress(
      non_null > 0 ? width_sum / static_cast<double>(non_null) : 0.0);
  if (numeric.empty()) return out;
  std::sort(numeric.begin(), numeric.end());
  for (int i = 0; i < 9; ++i) {
    out[3 + i] = ReferenceCompress(ReferencePercentile(numeric, 0.1 * (i + 1)));
  }
  double sum = 0.0;
  for (double v : numeric) sum += v;
  const double mean = sum / static_cast<double>(numeric.size());
  double var = 0.0;
  for (double v : numeric) var += (v - mean) * (v - mean);
  out[12] = ReferenceCompress(mean);
  out[13] = ReferenceCompress(std::sqrt(var / static_cast<double>(numeric.size())));
  out[14] = ReferenceCompress(numeric.front());
  out[15] = ReferenceCompress(numeric.back());
  return out;
}

Column TypedColumn(std::string name, ColumnType type, std::vector<std::string> cells) {
  Column col;
  col.name = std::move(name);
  col.type = type;
  col.cells = std::move(cells);
  return col;
}

// The first of stem0, stem1, ... that lowers some slot of the MinHash over
// `before` (slot i hashes alike at every num_perm, so 16 slots cover 32).
std::string SlotWinner(const std::vector<std::string>& before, const std::string& stem) {
  const MinHash base = MinHashOfSet(before, 16);
  for (size_t j = 0;; ++j) {
    MinHash with = base;
    with.Update(stem + std::to_string(j));
    if (with.signature() != base.signature()) return stem + std::to_string(j);
  }
}

// Lakebench union and join tables (types inferred, as a query's are) plus
// edge tables with explicit types.
std::vector<Table> SketchBytesTables() {
  std::vector<Table> tables;
  lakebench::UnionSearchScale union_scale;
  union_scale.num_seeds = 3;
  union_scale.variants_per_seed = 3;
  union_scale.num_queries = 3;
  union_scale.rows = 1024;
  for (Table& t : lakebench::MakeUnionSearch(lakebench::DomainCatalog(42, 200),
                                             union_scale, 1, "union")
                      .tables) {
    tables.push_back(std::move(t));
  }
  lakebench::WikiJoinScale join_scale;
  join_scale.num_tables = 12;
  join_scale.num_queries = 3;
  join_scale.rows = 64;
  for (Table& t : lakebench::MakeWikiJoinSearch(join_scale, 1).tables) {
    tables.push_back(std::move(t));
  }
  for (Table& t : tables) t.InferTypes();

  // Null tokens with mixed case and padding; all-null columns of each type.
  const std::vector<std::string> nulls = {" NA ", "n/a", "NULL", "", "  ",
                                          "None", "-", "NaN", "N/A", "\tnull"};
  Table null_table("nulls", "every cell missing");
  for (ColumnType type : {ColumnType::kString, ColumnType::kInteger,
                          ColumnType::kFloat, ColumnType::kDate}) {
    null_table.AddColumn(TypedColumn(ColumnTypeName(type), type, nulls));
  }
  null_table.AddColumn(TypedColumn(
      "some", ColumnType::kInteger,
      {"7", " NA ", "n/a", "7", "NULL", "-3", "", "  ", "none", "-"}));
  tables.push_back(std::move(null_table));

  // Parse failures after the type is set, signed zeros, overflowing sums.
  Table parse("parse", "cells that fail to parse");
  parse.AddColumn(TypedColumn(
      "int", ColumnType::kInteger,
      {"1", " 42 ", "-0", "0", "oops", "1e999", "3.5", "7", "NULL", "12",
       "9223372036854775807", "-9223372036854775808", "99999999999999999999"}));
  parse.AddColumn(TypedColumn(
      "float", ColumnType::kFloat,
      {"1.5", "1e999", "inf", "-inf", "2.5e3", "oops", "-0.0", "0.0",
       "1e308", "1e308", "1e308", "-1e-320", "  3.25\t"}));
  parse.AddColumn(TypedColumn(
      "date", ColumnType::kDate,
      {"2021-01-05", "2021-13-40", "05/01/2021", "2021/01/05", "1999",
       "12-31-1999", "oops", "2021-02-29", "2020-02-29", "0999", "2021-1-5",
       "31/12/1969", "2021-01-05"}));
  parse.AddColumn(TypedColumn(
      "huge", ColumnType::kFloat,
      {"1e308", "-1e308", "1e308", "1e308", "-1e308", "1e308", "1e308",
       "1e308", "1e308", "1e308", "1e308", "1e308", "1e308"}));
  tables.push_back(std::move(parse));

  // Words with mixed case, tabs, repeated spaces and non-ASCII bytes;
  // cells equal up to case are distinct cells but share their words.
  Table words("words", "whitespace and case");
  words.AddColumn(TypedColumn(
      "city", ColumnType::kString,
      {"New  York", "new\tyork", "NEW YORK ", "\tSan Francisco\t",
       "san   francisco", "Z\xc3\xbcrich", "Z\xc3\x9cRICH", "a b c d",
       "A B C D", "new york", "x\t\ty", "a-long-cell-that-needs-the-heap", " "}));
  words.AddColumn(TypedColumn(
      "code", ColumnType::kString,
      {"AB_01", "ab_01", "AB_01", "CD 02", "cd  02", "EF\t03", "NA", "na",
       "nan", "NaNa", "none of these", "-", "--"}));
  tables.push_back(std::move(words));

  // Both sides of the 10,000-distinct-cell budget (cell MinHash) and of
  // the 10,000-row budget (word MinHash). The cells and words at each
  // boundary lower a slot of the signature over what precedes them, so a
  // budget off by one in either direction changes the sketch.
  const size_t kBudget = 10000;
  const size_t kRows = kBudget + kBudget / 5 + 10;
  std::vector<std::string> prefix;
  for (size_t i = 0; i + 1 < kBudget; ++i) prefix.push_back("c" + std::to_string(i));
  const std::string last_in = SlotWinner(prefix, "in");
  prefix.push_back(last_in);
  const std::string first_out = SlotWinner(prefix, "out");
  // over: 10,000 distinct cells, then new ones. under: 9,999 and repeats.
  // late: nulls and repeats push the 10,000th distinct cell past row
  // 10,000, so the cell budget counts distinct cells, not rows.
  std::vector<std::string> over = prefix, under = prefix, late;
  over.push_back(first_out);
  under.back() = "c0";
  for (size_t i = 0; i + 1 < kBudget; ++i) {
    late.push_back(prefix[i]);
    if (i % 5 == 4) late.push_back(i % 10 == 4 ? " NULL" : prefix[i - 1]);
  }
  late.push_back(last_in);
  late.push_back(first_out);
  std::vector<std::string> spread;
  for (size_t r = 0; r < kRows; ++r) {
    spread.push_back(std::to_string(r % 4 == 0 ? r : r * 7919 % 10007));
  }
  // Row budget: new words on the last counted row and on the first
  // uncounted one, then a repeat of the counted cell. words_before is a
  // superset of the words before them, so a word that wins a slot over it
  // wins over them too.
  std::vector<std::string> row_words(kBudget - 1), words_before = {"common"};
  for (size_t r = 0; r < row_words.size(); ++r) {
    row_words[r] = r % 5 == 0 ? "n/a" : "Word" + std::to_string(r % 50) + "\tcommon";
    if (r < 50) words_before.push_back("word" + std::to_string(r));
  }
  const std::string last_word = SlotWinner(words_before, "lastin");
  words_before.push_back(last_word);
  const std::string first_out_word = SlotWinner(words_before, "firstout");
  row_words.push_back("COMMON  " + last_word);
  row_words.push_back(first_out_word + " common");
  row_words.push_back("COMMON  " + last_word);
  for (auto* col : {&over, &under, &late, &row_words}) {
    for (size_t r = col->size(); r < kRows; ++r) {
      col->push_back(col == &over ? "x" + std::to_string(r) : "c1");
    }
  }
  Table budget("budget", "cell and row budgets");
  budget.AddColumn(TypedColumn("over", ColumnType::kString, over));
  budget.AddColumn(TypedColumn("under", ColumnType::kString, under));
  budget.AddColumn(TypedColumn("late", ColumnType::kString, late));
  budget.AddColumn(TypedColumn("spread", ColumnType::kInteger, spread));
  budget.AddColumn(TypedColumn("row_words", ColumnType::kString, row_words));
  tables.push_back(std::move(budget));

  // A long table: many repeats, every type, past the snapshot row budget.
  Table long_table("long", "25,030 rows");
  std::vector<std::string> ints, floats, dates, names;
  Rng rng(5);
  for (size_t r = 0; r < 25030; ++r) {
    ints.push_back(r % 97 == 0 ? "" : std::to_string(r % 997));
    floats.push_back(std::to_string(rng.Normal(50, 20)));
    dates.push_back(std::to_string(1990 + r % 30) + "-0" +
                    std::to_string(1 + r % 9) + "-1" + std::to_string(r % 10));
    names.push_back("Name " + std::to_string(r % 12000) + " grp" +
                    std::to_string(r % 13));
  }
  long_table.AddColumn(TypedColumn("ints", ColumnType::kInteger, ints));
  long_table.AddColumn(TypedColumn("floats", ColumnType::kFloat, floats));
  long_table.AddColumn(TypedColumn("dates", ColumnType::kDate, dates));
  long_table.AddColumn(TypedColumn("names", ColumnType::kString, names));
  tables.push_back(std::move(long_table));

  // No rows, and no columns.
  Table empty_rows("empty_rows", "");
  empty_rows.AddColumn(TypedColumn("s", ColumnType::kString, {}));
  empty_rows.AddColumn(TypedColumn("i", ColumnType::kInteger, {}));
  tables.push_back(std::move(empty_rows));
  tables.emplace_back("no_columns", "");
  return tables;
}

// The digest of SketchBytesTables' integer fields at num_perm 16 and 32.
constexpr uint64_t kSketchBytesDigest = 0x10a6c66db7b20567ULL;

uint64_t FoldString(uint64_t digest, std::string_view s) {
  return HashCombine(HashCombine(digest, s.size()), Fnv1a64(s));
}

uint64_t FoldMinHash(uint64_t digest, const MinHash& mh) {
  digest = HashCombine(digest, mh.empty() ? 1 : 0);
  digest = HashCombine(digest, mh.num_perm());
  for (uint32_t slot : mh.signature()) digest = HashCombine(digest, slot);
  return digest;
}

TEST(SketchBytesTest, EveryFieldMatchesTheReference) {
  const std::vector<Table> tables = SketchBytesTables();
  uint64_t digest = tables.size();
  for (const Table& table : tables) {
    for (size_t num_perm : {16, 32}) {
      SketchOptions options;
      options.num_perm = num_perm;
      const TableSketch sketch = BuildTableSketch(table, options);
      digest = FoldString(digest, sketch.table_id);
      digest = FoldString(digest, sketch.description);
      digest = FoldMinHash(digest, sketch.content_snapshot);
      ASSERT_EQ(sketch.columns.size(), table.num_columns()) << table.id();
      for (size_t c = 0; c < table.num_columns(); ++c) {
        const ColumnSketch& cs = sketch.columns[c];
        digest = FoldString(digest, cs.name);
        digest = HashCombine(digest, static_cast<uint64_t>(cs.type));
        digest = FoldMinHash(digest, cs.cell_minhash);
        digest = FoldMinHash(digest, cs.word_minhash);
        const auto expected = ReferenceNumerical(table.column(c));
        for (size_t i = 0; i < kNumericalSketchDim; ++i) {
          EXPECT_EQ(std::bit_cast<uint32_t>(cs.numerical.values[i]),
                    std::bit_cast<uint32_t>(expected[i]))
              << table.id() << " column " << c << " slot " << i << ": "
              << cs.numerical.values[i] << " vs " << expected[i];
        }
      }
    }
  }
  EXPECT_EQ(digest, kSketchBytesDigest) << "0x" << std::hex << digest;
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
