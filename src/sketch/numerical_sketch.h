// The paper's numerical sketch (Sec III-A):
//   [unique count, NaN count, cell width, p10..p90, mean, std, min, max]
// with counts normalized by row count.
#ifndef TSFM_SKETCH_NUMERICAL_SKETCH_H_
#define TSFM_SKETCH_NUMERICAL_SKETCH_H_

#include <array>
#include <vector>

#include "table/stats.h"

namespace tsfm {

/// Number of slots in a numerical sketch vector.
inline constexpr size_t kNumericalSketchDim = 16;

/// \brief The 16-slot numerical sketch vector of one column.
///
/// Slot layout (paper order):
///   0 unique_fraction, 1 nan_fraction, 2 avg cell width,
///   3..11 p10..p90, 12 mean, 13 stddev, 14 min, 15 max.
/// For string columns the numeric slots (3..15) are zero.
struct NumericalSketch {
  std::array<float, kNumericalSketchDim> values = {};

  /// Raw vector for feeding the linear embedding layer.
  std::vector<float> ToFloats() const {
    return std::vector<float>(values.begin(), values.end());
  }
};

/// Builds a column's numerical sketch from its statistics
/// (ComputeColumnStats, or ProfileColumn's `stats`).
NumericalSketch MakeNumericalSketch(const ColumnStats& stats);

/// \brief Squashes unbounded numeric stats into a stable range.
///
/// Raw means/extremes can span many orders of magnitude across a lake, which
/// destabilizes the linear embedding. We apply signed log1p compression:
/// sign(x) * log1p(|x|). Fractions and widths pass through it too for
/// uniformity; the transform is monotone so ordering information survives.
/// Always finite: +-inf saturates to +-log1p(DBL_MAX) and NaN maps to 0.
float CompressStat(double v);

}  // namespace tsfm

#endif  // TSFM_SKETCH_NUMERICAL_SKETCH_H_
