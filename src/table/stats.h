// Column statistics feeding the numerical sketch (paper Sec III-A), and the
// one walk over a column that every column sketch is built from.
#ifndef TSFM_TABLE_STATS_H_
#define TSFM_TABLE_STATS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "table/table.h"

namespace tsfm {

/// A column sketch's cell budget: its cell MinHash folds in the first
/// kSketchCells distinct cells, its word MinHash the words of the first
/// kSketchCells rows.
inline constexpr size_t kSketchCells = 10000;

/// \brief Statistical profile of one column.
///
/// The fields mirror the paper's numerical sketch layout: unique and NaN
/// counts normalized by row count, average cell width in bytes, and for
/// numeric/date columns the deciles, mean, standard deviation, min and max.
struct ColumnStats {
  double unique_fraction = 0.0;   ///< distinct values / rows
  double nan_fraction = 0.0;      ///< null cells / rows
  double avg_cell_width = 0.0;    ///< mean byte length of non-null cells
  bool has_numeric = false;       ///< numeric stats below are meaningful
  double percentiles[9] = {0};    ///< p10..p90
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// \brief Everything the column sketches read from a column.
///
/// `distinct` views into the column's cells: a profile must not outlive
/// its column.
struct ColumnProfile {
  ColumnStats stats;
  /// Every distinct non-null cell, in first-seen order.
  std::vector<std::string_view> distinct;
  /// String columns only: the distinct lower-cased words of the first
  /// kSketchCells rows.
  std::unordered_set<std::string> words;
};

/// \brief Profiles `column` in one walk over its cells.
///
/// Each cell is null-tested once. Distinct cells are found by view, and
/// each is parsed (numeric/date columns) or split into words (string
/// columns) once; the numeric statistics keep every non-null row's value.
ColumnProfile ProfileColumn(const Column& column);

/// Computes statistics for `column` (its `type` decides numeric handling).
ColumnStats ComputeColumnStats(const Column& column);

/// Linear-interpolated percentile of sorted data, q in [0, 1].
double Percentile(const std::vector<double>& sorted, double q);

}  // namespace tsfm

#endif  // TSFM_TABLE_STATS_H_
