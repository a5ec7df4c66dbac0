// SQ8 scalar quantization: the row codec behind the kFlat backend's
// compressed storage option (IndexOptions::storage == Storage::kSq8).
//
// A codec is a per-dimension affine map trained from data: dimension i
// stores offset[i] (the calibration minimum) and scale[i] (range / 255),
// and a float row encodes as one byte per dimension,
//
//   code[i] = clamp(round((row[i] - offset[i]) / scale[i]), 0, 255)
//   decode(code)[i] = offset[i] + scale[i] * code[i]
//
// so rows shrink 4x and the round-trip error is at most scale[i] / 2 per
// dimension for values inside the calibrated range (values outside clamp
// to the range edge). A dimension with zero calibrated range (constant, or
// no training data) gets scale 1 so decode reproduces the offset exactly.
//
// The codec owns the affine map only; the asymmetric float-query x
// uint8-row kernels live in the DistanceKernel dispatch
// (distance_kernels.h: dot_multi_sq8 / l2sq_multi_sq8 and
// ScanTopKMultiSq8), and the quantized index storage lives in KnnIndex. Persistence is a tagged
// "CSQ8" section embedded in SQ8 LAK2 files so calibration survives
// save/load bit-exactly.
#ifndef TSFM_SEARCH_QUANTIZER_H_
#define TSFM_SEARCH_QUANTIZER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "util/status.h"

namespace tsfm::search {

/// \brief Per-dimension affine SQ8 codec (see file comment for the layout).
class Sq8Codec {
 public:
  /// Binary stream tag of a persisted codec section ("CSQ8").
  static constexpr uint32_t kSectionTag = 0x38515343;

  Sq8Codec() = default;

  /// \brief Calibrates a codec from `num_rows` row-major training rows.
  ///
  /// Per-dimension min/max over the data; zero rows (or a constant
  /// dimension) yields offset 0 (resp. the constant) with scale 1, so
  /// encode maps everything to code 0 and decode returns the offset.
  static Sq8Codec Train(const float* rows, size_t num_rows, size_t dim);

  /// Rebuilds a codec from persisted calibration arrays (sizes must match
  /// and every scale must be positive and finite).
  static Result<Sq8Codec> FromParts(std::vector<float> scale,
                                    std::vector<float> offset);

  bool trained() const { return !scale_.empty(); }
  size_t dim() const { return scale_.size(); }
  const std::vector<float>& scale() const { return scale_; }
  const std::vector<float>& offset() const { return offset_; }

  /// Encodes one row of dim() floats into dim() bytes.
  void EncodeRow(const float* row, uint8_t* code) const;

  /// Decodes one row of dim() bytes into dim() floats.
  void DecodeRow(const uint8_t* code, float* out) const;

  /// L2 norm of the decoded row — what the cosine scan caches per row.
  float DecodedNorm(const uint8_t* code) const;

  /// Writes the tagged calibration section (kSectionTag, dim, scale[],
  /// offset[]).
  Status Save(std::ostream& out) const;

  /// Reads a section written by Save; `expected_dim` guards against a
  /// codec that disagrees with the surrounding index image.
  static Result<Sq8Codec> Load(std::istream& in, size_t expected_dim);

 private:
  std::vector<float> scale_;   // per dimension, always > 0
  std::vector<float> offset_;  // per dimension
};

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_QUANTIZER_H_
