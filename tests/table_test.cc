#include <gtest/gtest.h>

#include "table/csv.h"
#include "table/stats.h"
#include "table/table.h"
#include "table/value.h"

namespace tsfm {
namespace {

// ------------------------------------------------------------- Value parse

TEST(ValueTest, ParseIntStrict) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt("-7").value(), -7);
  EXPECT_EQ(ParseInt(" 13 ").value(), 13);
  EXPECT_FALSE(ParseInt("12.5").has_value());
  EXPECT_FALSE(ParseInt("12a").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
}

TEST(ValueTest, ParseFloatStrict) {
  EXPECT_DOUBLE_EQ(ParseFloat("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseFloat("-0.25").value(), -0.25);
  EXPECT_DOUBLE_EQ(ParseFloat("1e3").value(), 1000.0);
  EXPECT_FALSE(ParseFloat("abc").has_value());
  EXPECT_FALSE(ParseFloat("1.2x").has_value());
  EXPECT_FALSE(ParseFloat("inf").has_value());
  EXPECT_FALSE(ParseFloat("-Infinity").has_value());
  EXPECT_FALSE(ParseFloat("1e999").has_value());
  EXPECT_FALSE(ParseFloat("-nan").has_value());
  EXPECT_DOUBLE_EQ(ParseFloat("1e308").value(), 1e308);
}

TEST(ValueTest, ParseIsoDate) {
  // 1970-01-01 is day 0.
  EXPECT_EQ(ParseDateToDays("1970-01-01").value(), 0);
  EXPECT_EQ(ParseDateToDays("1970-01-02").value(), 1);
  EXPECT_EQ(ParseDateToDays("1969-12-31").value(), -1);
  // Known: 2000-03-01 is day 11017.
  EXPECT_EQ(ParseDateToDays("2000-03-01").value(), 11017);
}

TEST(ValueTest, ParseSlashDates) {
  EXPECT_EQ(ParseDateToDays("1970/01/02").value(), 1);
  // DD/MM/YYYY.
  EXPECT_EQ(ParseDateToDays("02/01/1970").value(), 1);
}

TEST(ValueTest, RejectsBadDates) {
  EXPECT_FALSE(ParseDateToDays("2020-13-01").has_value());
  EXPECT_FALSE(ParseDateToDays("2020-02-30").has_value());
  EXPECT_FALSE(ParseDateToDays("hello").has_value());
  EXPECT_FALSE(ParseDateToDays("1-2").has_value());
}

TEST(ValueTest, LeapYearHandling) {
  EXPECT_TRUE(ParseDateToDays("2020-02-29").has_value());
  EXPECT_FALSE(ParseDateToDays("2021-02-29").has_value());
  EXPECT_TRUE(ParseDateToDays("2000-02-29").has_value());   // div by 400
  EXPECT_FALSE(ParseDateToDays("1900-02-29").has_value());  // div by 100
}

TEST(ValueTest, NullTokens) {
  EXPECT_TRUE(IsNullToken(""));
  EXPECT_TRUE(IsNullToken("  "));
  EXPECT_TRUE(IsNullToken("NaN"));
  EXPECT_TRUE(IsNullToken("null"));
  EXPECT_TRUE(IsNullToken("N/A"));
  EXPECT_TRUE(IsNullToken("-"));
  EXPECT_FALSE(IsNullToken("0"));
  EXPECT_FALSE(IsNullToken("nothing"));
}

TEST(ValueTest, NumericValueByType) {
  EXPECT_DOUBLE_EQ(NumericValue("42", ColumnType::kInteger).value(), 42.0);
  EXPECT_DOUBLE_EQ(NumericValue("2.5", ColumnType::kFloat).value(), 2.5);
  EXPECT_DOUBLE_EQ(NumericValue("1970-01-02", ColumnType::kDate).value(), 1.0);
  EXPECT_FALSE(NumericValue("abc", ColumnType::kString).has_value());
  EXPECT_FALSE(NumericValue("", ColumnType::kFloat).has_value());
}

// -------------------------------------------------------- Type inference

TEST(TypeInferenceTest, DetectsEachType) {
  EXPECT_EQ(InferColumnType({"1", "2", "3"}), ColumnType::kInteger);
  EXPECT_EQ(InferColumnType({"1.5", "2.25"}), ColumnType::kFloat);
  EXPECT_EQ(InferColumnType({"2020-01-01", "2021-06-15"}), ColumnType::kDate);
  EXPECT_EQ(InferColumnType({"apple", "pear"}), ColumnType::kString);
}

TEST(TypeInferenceTest, IntegersParseAsFloatButPreferInt) {
  EXPECT_EQ(InferColumnType({"10", "20"}), ColumnType::kInteger);
}

TEST(TypeInferenceTest, MixedFallsBackToString) {
  EXPECT_EQ(InferColumnType({"1", "apple"}), ColumnType::kString);
}

TEST(TypeInferenceTest, NullsAreSkipped) {
  EXPECT_EQ(InferColumnType({"", "NaN", "7", "8"}), ColumnType::kInteger);
  EXPECT_EQ(InferColumnType({"", ""}), ColumnType::kString);
}

TEST(TypeInferenceTest, ProbesOnlyFirstValues) {
  // First 10 are ints; an 11th bad value must not change the verdict.
  std::vector<std::string> cells;
  for (int i = 0; i < 10; ++i) cells.push_back(std::to_string(i));
  cells.push_back("oops");
  EXPECT_EQ(InferColumnType(cells, 10), ColumnType::kInteger);
}

// ------------------------------------------------------------------ Table

Table MakeToyTable() {
  Table t("toy", "a toy table");
  t.AddColumn("name", {"ann", "bob", "cy"});
  t.AddColumn("age", {"34", "28", "45"});
  t.AddColumn("city", {"oslo", "rome", "kiev"});
  t.InferTypes();
  return t;
}

TEST(TableTest, BasicAccessors) {
  Table t = MakeToyTable();
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.cell(1, 0), "bob");
  EXPECT_EQ(t.ColumnIndex("age"), 1);
  EXPECT_EQ(t.ColumnIndex("nope"), -1);
  EXPECT_TRUE(t.Validate());
  EXPECT_EQ(t.column(1).type, ColumnType::kInteger);
}

TEST(TableTest, RowString) {
  Table t = MakeToyTable();
  EXPECT_EQ(t.RowString(0), "ann 34 oslo");
}

TEST(TableTest, ColumnReorderIsContentPreserving) {
  Table t = MakeToyTable();
  Table r = t.WithColumnOrder({2, 0, 1});
  EXPECT_EQ(r.column(0).name, "city");
  EXPECT_EQ(r.column(1).name, "name");
  EXPECT_EQ(r.cell(0, 0), "oslo");
  EXPECT_EQ(r.num_rows(), 3u);
}

TEST(TableTest, RowReorder) {
  Table t = MakeToyTable();
  Table r = t.WithRowOrder({2, 1, 0});
  EXPECT_EQ(r.cell(0, 0), "cy");
  EXPECT_EQ(r.cell(2, 0), "ann");
}

TEST(TableTest, SliceRowsAndColumns) {
  Table t = MakeToyTable();
  Table s = t.Slice({0, 2}, {1});
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.num_columns(), 1u);
  EXPECT_EQ(s.column(0).name, "age");
  EXPECT_EQ(s.cell(1, 0), "45");
}

TEST(TableTest, ValidateCatchesRaggedColumns) {
  Table t;
  t.AddColumn("a", {"1", "2"});
  t.AddColumn("b", {"1"});
  EXPECT_FALSE(t.Validate());
}

// ------------------------------------------------------------------ Stats

TEST(StatsTest, PercentileInterpolation) {
  std::vector<double> v = {0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 10.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.9), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(StatsTest, NumericColumnStats) {
  Column col;
  col.name = "x";
  col.type = ColumnType::kInteger;
  col.cells = {"1", "2", "3", "4", ""};
  ColumnStats s = ComputeColumnStats(col);
  EXPECT_TRUE(s.has_numeric);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.nan_fraction, 0.2, 1e-9);
  EXPECT_NEAR(s.unique_fraction, 0.8, 1e-9);
}

TEST(StatsTest, StringColumnStats) {
  Column col;
  col.name = "s";
  col.type = ColumnType::kString;
  col.cells = {"aa", "bbbb", "aa"};
  ColumnStats s = ComputeColumnStats(col);
  EXPECT_FALSE(s.has_numeric);
  EXPECT_NEAR(s.avg_cell_width, (2 + 4 + 2) / 3.0, 1e-9);
  EXPECT_NEAR(s.unique_fraction, 2.0 / 3.0, 1e-9);
}

TEST(StatsTest, EmptyColumn) {
  Column col;
  ColumnStats s = ComputeColumnStats(col);
  EXPECT_DOUBLE_EQ(s.unique_fraction, 0.0);
  EXPECT_FALSE(s.has_numeric);
}

// -------------------------------------------------------------------- CSV

TEST(CsvTest, ParsesSimple) {
  auto r = ParseCsv("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(r.ok());
  const Table& t = r.value();
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.cell(1, 1), "y");
  EXPECT_EQ(t.column(0).type, ColumnType::kInteger);
}

TEST(CsvTest, QuotedFieldsWithDelimsAndNewlines) {
  auto r = ParseCsv("a,b\n\"x,1\",\"line\nbreak\"\n\"he said \"\"hi\"\"\",z\n");
  ASSERT_TRUE(r.ok());
  const Table& t = r.value();
  EXPECT_EQ(t.cell(0, 0), "x,1");
  EXPECT_EQ(t.cell(0, 1), "line\nbreak");
  EXPECT_EQ(t.cell(1, 0), "he said \"hi\"");
}

TEST(CsvTest, ShortRowsPadded) {
  auto r = ParseCsv("a,b,c\n1,2\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().cell(0, 2), "");
}

TEST(CsvTest, LongRowIsError) {
  auto r = ParseCsv("a,b\n1,2,3\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, UnterminatedQuoteIsError) {
  auto r = ParseCsv("a,b\n\"oops,2\n");
  EXPECT_FALSE(r.ok());
}

TEST(CsvTest, EmptyInputIsError) { EXPECT_FALSE(ParseCsv("").ok()); }

TEST(CsvTest, RoundTrip) {
  Table t("t", "d");
  t.AddColumn("col,1", {"a\"b", "plain"});
  t.AddColumn("col2", {"multi\nline", "x,y"});
  std::string csv = WriteCsv(t);
  auto r = ParseCsv(csv);
  ASSERT_TRUE(r.ok());
  const Table& u = r.value();
  EXPECT_EQ(u.column(0).name, "col,1");
  EXPECT_EQ(u.cell(0, 0), "a\"b");
  EXPECT_EQ(u.cell(0, 1), "multi\nline");
  EXPECT_EQ(u.cell(1, 1), "x,y");
}

TEST(CsvTest, CrLfHandled) {
  auto r = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().cell(0, 1), "2");
}

TEST(CsvTest, FileRoundTrip) {
  Table t("t", "d");
  t.AddColumn("x", {"1", "2"});
  std::string path = testing::TempDir() + "/tsfm_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto r = ReadCsvFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 2u);
  EXPECT_FALSE(ReadCsvFile("/nonexistent/nope.csv").ok());
}

}  // namespace
}  // namespace tsfm
