#include "sketch/numerical_sketch.h"

#include <cfloat>
#include <cmath>

namespace tsfm {

float CompressStat(double v) {
  // Finite cells can still overflow a sum or a variance (three 1e308
  // cells), so saturate instead of letting inf/nan reach the encoder.
  if (std::isnan(v)) return 0.0f;
  if (std::isinf(v)) v = v < 0 ? -DBL_MAX : DBL_MAX;
  double s = v < 0 ? -1.0 : 1.0;
  return static_cast<float>(s * std::log1p(std::fabs(v)));
}

NumericalSketch MakeNumericalSketch(const ColumnStats& stats) {
  NumericalSketch sketch;
  sketch.values[0] = CompressStat(stats.unique_fraction);
  sketch.values[1] = CompressStat(stats.nan_fraction);
  sketch.values[2] = CompressStat(stats.avg_cell_width);
  if (stats.has_numeric) {
    for (int i = 0; i < 9; ++i) {
      sketch.values[3 + i] = CompressStat(stats.percentiles[i]);
    }
    sketch.values[12] = CompressStat(stats.mean);
    sketch.values[13] = CompressStat(stats.stddev);
    sketch.values[14] = CompressStat(stats.min);
    sketch.values[15] = CompressStat(stats.max);
  }
  return sketch;
}

}  // namespace tsfm
