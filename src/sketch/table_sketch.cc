#include "sketch/table_sketch.h"

#include <algorithm>

#include "util/hash.h"

namespace tsfm {

std::vector<float> ColumnSketch::MinHashInput() const {
  std::vector<float> cells = cell_minhash.ToFloats();
  std::vector<float> out;
  out.reserve(cells.size() * 2);
  out.insert(out.end(), cells.begin(), cells.end());
  if (type == ColumnType::kString) {
    std::vector<float> words = word_minhash.ToFloats();
    out.insert(out.end(), words.begin(), words.end());
  } else {
    // Non-string columns have no words signature; the paper includes only
    // the cell MinHash. We duplicate it so every column feeds the same
    // linear layer width.
    out.insert(out.end(), cells.begin(), cells.end());
  }
  return out;
}

std::vector<float> ColumnSketch::OneBitMinHashInput() const {
  auto one_bit = [](const MinHash& mh) {
    std::vector<float> out(mh.num_perm());
    for (size_t i = 0; i < mh.num_perm(); ++i) {
      out[i] = (SplitMix64(mh.signature()[i]) & 1) ? 1.0f : -1.0f;
    }
    return out;
  };
  std::vector<float> cells = one_bit(cell_minhash);
  std::vector<float> out;
  out.reserve(cells.size() * 2);
  out.insert(out.end(), cells.begin(), cells.end());
  if (type == ColumnType::kString) {
    std::vector<float> words = one_bit(word_minhash);
    out.insert(out.end(), words.begin(), words.end());
  } else {
    out.insert(out.end(), cells.begin(), cells.end());
  }
  return out;
}

std::vector<std::string> DistinctCells(const Column& column, size_t max_cells) {
  std::vector<std::string_view> distinct = ProfileColumn(column).distinct;
  distinct.resize(std::min(max_cells, distinct.size()));
  return {distinct.begin(), distinct.end()};
}

TableSketch BuildTableSketch(const Table& table, const SketchOptions& options) {
  TableSketch sketch;
  sketch.table_id = table.id();
  sketch.description = table.description();
  sketch.content_snapshot = MakeContentSnapshot(table, options.num_perm);

  sketch.columns.reserve(table.num_columns());
  for (const Column& col : table.columns()) {
    // A MinHash slot is a minimum, so the order in which cells and words
    // are folded in never changes a signature; only the sets do.
    const ColumnProfile profile = ProfileColumn(col);
    ColumnSketch& cs = sketch.columns.emplace_back();
    cs.name = col.name;
    cs.type = col.type;
    cs.cell_minhash = MinHash(options.num_perm);
    const size_t cells = std::min(profile.distinct.size(), kSketchCells);
    for (size_t i = 0; i < cells; ++i) cs.cell_minhash.Update(profile.distinct[i]);
    cs.word_minhash = MinHash(options.num_perm);
    for (const std::string& word : profile.words) cs.word_minhash.Update(word);
    cs.numerical = MakeNumericalSketch(profile.stats);
  }
  return sketch;
}

}  // namespace tsfm
