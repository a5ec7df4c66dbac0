#include "table/stats.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "util/string_util.h"

namespace tsfm {

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

ColumnProfile ProfileColumn(const Column& column) {
  ColumnProfile profile;
  ColumnStats& stats = profile.stats;
  const size_t rows = column.cells.size();
  if (rows == 0) return profile;

  // Distinct cell -> its parsed value (numeric and date columns).
  std::unordered_map<std::string_view, std::optional<double>> seen;
  seen.reserve(rows);
  size_t nulls = 0;
  double width_sum = 0.0;
  std::vector<double> numeric;
  numeric.reserve(rows);

  for (size_t r = 0; r < rows; ++r) {
    const std::string& cell = column.cells[r];
    if (IsNullToken(cell)) {
      ++nulls;
      continue;
    }
    width_sum += static_cast<double>(cell.size());
    auto [it, first_seen] = seen.try_emplace(cell);
    if (first_seen) {
      profile.distinct.push_back(cell);
      if (column.type != ColumnType::kString) {
        it->second = NumericValue(cell, column.type);
      } else if (r < kSketchCells) {
        // A repeated cell adds no new word.
        for (std::string& word : SplitWhitespace(ToLower(cell))) {
          profile.words.insert(std::move(word));
        }
      }
    }
    if (it->second) numeric.push_back(*it->second);
  }

  const size_t non_null = rows - nulls;
  stats.unique_fraction =
      static_cast<double>(profile.distinct.size()) / static_cast<double>(rows);
  stats.nan_fraction = static_cast<double>(nulls) / static_cast<double>(rows);
  stats.avg_cell_width = non_null > 0 ? width_sum / static_cast<double>(non_null) : 0.0;

  if (!numeric.empty()) {
    stats.has_numeric = true;
    std::sort(numeric.begin(), numeric.end());
    for (int i = 0; i < 9; ++i) {
      stats.percentiles[i] = Percentile(numeric, 0.1 * (i + 1));
    }
    double sum = 0.0;
    for (double v : numeric) sum += v;
    stats.mean = sum / static_cast<double>(numeric.size());
    double var = 0.0;
    for (double v : numeric) var += (v - stats.mean) * (v - stats.mean);
    stats.stddev = std::sqrt(var / static_cast<double>(numeric.size()));
    stats.min = numeric.front();
    stats.max = numeric.back();
  }
  return profile;
}

ColumnStats ComputeColumnStats(const Column& column) {
  return ProfileColumn(column).stats;
}

}  // namespace tsfm
