#include "baselines/serialize_table.h"

#include <algorithm>
#include <unordered_set>

#include "sketch/table_sketch.h"
#include "util/string_util.h"

namespace tsfm::baselines {

std::string SerializeHeaders(const Table& table) {
  std::string out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out += " | ";
    out += table.column(c).name;
  }
  return out;
}

std::string SerializeRows(const Table& table, size_t max_rows) {
  std::string out = SerializeHeaders(table);
  const size_t rows = std::min(table.num_rows(), max_rows);
  for (size_t r = 0; r < rows; ++r) {
    out += " ; ";
    out += table.RowString(r);
  }
  return out;
}

std::string SerializeColumns(const Table& table, size_t values_per_column) {
  std::string out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out += " ; ";
    out += table.column(c).name;
    out += " :";
    for (const auto& cell : DistinctCells(table.column(c), values_per_column)) {
      out += " " + cell;
    }
  }
  return out;
}

std::string DeepJoinColumnText(const Table& table, size_t column,
                               size_t max_values) {
  const Column& col = table.column(column);
  std::string out = table.id() + " . " + col.name + " contains " +
                    std::to_string(col.cells.size()) + " values :";
  std::unordered_set<std::string> seen;
  size_t taken = 0;
  size_t min_len = SIZE_MAX, max_len = 0, total_len = 0, non_null = 0;
  for (const auto& cell : col.cells) {
    if (IsNullToken(cell)) continue;
    ++non_null;
    min_len = std::min(min_len, cell.size());
    max_len = std::max(max_len, cell.size());
    total_len += cell.size();
    if (taken < max_values && seen.insert(cell).second) {
      out += " " + cell;
      ++taken;
    }
  }
  if (non_null > 0) {
    out += " , max " + std::to_string(max_len) + " min " + std::to_string(min_len) +
           " avg " + std::to_string(total_len / non_null);
  }
  return out;
}

std::string SbertColumnText(const Table& table, size_t column, size_t max_values) {
  return Join(DistinctCells(table.column(column), max_values), " ");
}

}  // namespace tsfm::baselines
