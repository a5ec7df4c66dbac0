// The full sketch bundle for one table (paper Sec III-A / Fig 1 left panel):
// a table-level content snapshot plus, per column, a cell-value MinHash, a
// words MinHash (string columns only) and a numerical sketch.
#ifndef TSFM_SKETCH_TABLE_SKETCH_H_
#define TSFM_SKETCH_TABLE_SKETCH_H_

#include <string>
#include <vector>

#include "sketch/content_snapshot.h"
#include "sketch/minhash.h"
#include "sketch/numerical_sketch.h"
#include "table/stats.h"
#include "table/table.h"

namespace tsfm {

/// Sketch-building knobs. The row and cell budgets are constants:
/// kSnapshotRows (content_snapshot.h) and kSketchCells (table/stats.h).
struct SketchOptions {
  size_t num_perm = 32;  ///< MinHash slots per signature
};

/// \brief Sketches of one column.
struct ColumnSketch {
  std::string name;
  ColumnType type = ColumnType::kString;
  MinHash cell_minhash;       ///< over the set of cell value strings
  MinHash word_minhash;       ///< over the set of words (string columns only)
  NumericalSketch numerical;  ///< the 16-slot statistics vector

  ColumnSketch() : cell_minhash(0), word_minhash(0) {}

  /// The model-input MinHash vector: for string columns the concatenation
  /// cell||word (paper: E_{C||W}); for other types the cell signature
  /// duplicated to keep a fixed input width.
  std::vector<float> MinHashInput() const;

  /// \brief 1-bit MinHash variant (Li & Koenig 2010) of MinHashInput().
  ///
  /// Each signature slot is mapped to +-1 by one hash bit; the cosine of
  /// two such vectors is an unbiased estimate of the Jaccard similarity
  /// (matching slots contribute +1, non-matching slots are independent
  /// coin flips with mean 0). Used by the Embedder's sketch-identity
  /// block, where cosine similarity must track set overlap.
  std::vector<float> OneBitMinHashInput() const;
};

/// \brief Sketches of one table.
struct TableSketch {
  std::string table_id;
  std::string description;
  MinHash content_snapshot;
  std::vector<ColumnSketch> columns;

  TableSketch() : content_snapshot(0) {}
};

/// Builds every sketch for `table`, from one walk per column
/// (ProfileColumn). Types must already be inferred (or call
/// table.InferTypes() first); this function does not mutate the table.
TableSketch BuildTableSketch(const Table& table, const SketchOptions& options = {});

/// The first `max_cells` distinct non-null cells of a column, in first-seen
/// order (the default is the cell MinHash's set): ProfileColumn's
/// `distinct` cut to `max_cells`, from a walk that stops there and parses
/// and splits nothing.
std::vector<std::string> DistinctCells(const Column& column,
                                       size_t max_cells = kSketchCells);

}  // namespace tsfm

#endif  // TSFM_SKETCH_TABLE_SKETCH_H_
