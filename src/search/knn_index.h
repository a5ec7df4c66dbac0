// Exact k-nearest-neighbour index over dense vectors.
//
// The paper indexes embeddings offline and answers queries in embedding
// space; the flat backend is a brute-force scan with a bounded top-k heap —
// exact, cache-friendly, and the recall reference every approximate backend
// is tested against.
//
// With Storage::kSq8 the scan reads scalar-quantized bytes instead of
// floats (4x smaller rows to stream; see quantizer.h). Quantization is
// lazy: the first Search calibrates the codec over everything added so
// far and encodes the rows; later Adds encode through that calibration.
// An index seeded with a saved codec (SeedSq8Codec, how a lake file is
// restored) encodes every Add through it from the start. The float rows
// stay beside the codes: Row() hands them to a lake's Save, and a
// compaction retrains the codec from them, which keeps it bit-identical
// to a rebuild.
#ifndef TSFM_SEARCH_KNN_INDEX_H_
#define TSFM_SEARCH_KNN_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "search/quantizer.h"
#include "search/vector_index.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tsfm::search {

/// \brief Brute-force exact kNN with payload ids (the kFlat backend).
class KnnIndex : public VectorIndex {
 public:
  explicit KnnIndex(size_t dim, Metric metric = Metric::kCosine,
                    Storage storage = Storage::kFloat32);

  // The quantization mutex pins the defaults; moves carry every field and
  // re-arm a fresh mutex (no search may overlap a move, same as Add).
  KnnIndex(KnnIndex&& other) noexcept;
  KnnIndex& operator=(KnnIndex&& other) noexcept;

  /// Adds a vector with an opaque payload id. Vector size must equal dim.
  void Add(size_t payload, const std::vector<float>& vec) override;

  /// \brief Top-k (payload, distance) pairs, nearest first.
  ///
  /// Cosine distance = 1 - cos(a, b); a zero vector has no direction, so
  /// it (or a zero query) scores kMaxCosineDistance and ranks after every
  /// vector that has one. k == 0 or a query of the wrong dimension returns
  /// an empty list. A one-query SearchBatch: the same scan, the same hits.
  std::vector<std::pair<size_t, float>> Search(const std::vector<float>& query,
                                               size_t k) const override;

  /// \brief Batched search through the flat scan.
  ///
  /// Overrides the default per-query fan-out: queries are packed into
  /// chunks and each chunk makes ONE streaming pass over the rows through
  /// the process's selected distance kernels (ScanTopKMulti; under kSq8
  /// the asymmetric int8 scan with exact rescore, ScanTopKMultiSq8,
  /// reporting distances in decoded space), so row loads amortize across
  /// the batch. A query's hits do not depend on the batch it rides in
  /// (the multi scan guarantees it per kernel set), including the
  /// degenerate cases (k == 0 or a wrong-dimension query yields that query
  /// an empty list). With a non-null `pool` the chunks fan out over it.
  std::vector<std::vector<std::pair<size_t, float>>> SearchBatch(
      const std::vector<std::vector<float>>& queries, size_t k,
      ThreadPool* pool = nullptr) const override;

  size_t size() const override { return payloads_.size(); }
  size_t dim() const override { return dim_; }
  IndexBackend backend() const override { return IndexBackend::kFlat; }
  Metric metric() const override { return metric_; }
  Storage storage() const { return storage_; }
  const float* Row(size_t i) const override { return data_.data() + i * dim_; }

  /// \brief Installs a pre-trained codec on an empty kSq8 index.
  ///
  /// Every subsequent Add encodes through this calibration instead of
  /// re-training — how LakeIndex::Load keeps a restored index encoding
  /// exactly as the saved one did. Check-fails on a non-empty or
  /// non-kSq8 index.
  void SeedSq8Codec(Sq8Codec codec);

  /// The trained codec (calibrating first if needed), or nullptr on a
  /// float32 index.
  const Sq8Codec* sq8_codec() const;

 private:
  // Calibrates over the float rows and encodes them on first use (kSq8
  // only).
  // Const because it is reached from searches: double-checked on quantized_
  // so the steady state is one relaxed-ish atomic load.
  void EnsureQuantized() const;

  size_t dim_;
  Metric metric_;
  Storage storage_;
  // norms_/codec_/codes_ are deliberately NOT lock-annotated: they follow
  // the double-checked publication protocol on quantized_, not a mutex.
  // Writers hold quantize_mu_ while encoding, then publish with a release
  // store of quantized_; readers that observed quantized_ == true
  // (acquire) read them lock-free. That protocol is outside what the
  // static analysis can express — TSan (which sees the acquire/release
  // edge) is the checker of record here. The float rows are outside it:
  // only Add writes them, and Adds may not overlap searches on the same
  // index by the VectorIndex contract.
  std::vector<float> data_;  // row-major float rows, as added (kSq8 too)
  std::vector<size_t> payloads_;
  mutable std::vector<float> norms_;  // L2 norms for cosine; decoded norms
                                      // once rows are quantized
  mutable Sq8Codec codec_;            // trained calibration (kSq8)
  mutable std::vector<uint8_t> codes_;  // row-major SQ8 rows (kSq8)
  mutable std::atomic<bool> quantized_{false};
  mutable Mutex quantize_mu_;
};

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_KNN_INDEX_H_
