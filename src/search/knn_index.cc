#include "search/knn_index.h"

#include <algorithm>

#include "search/distance_kernels.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tsfm::search {

KnnIndex::KnnIndex(size_t dim, Metric metric, Storage storage)
    : dim_(dim), metric_(metric), storage_(storage) {}

KnnIndex::KnnIndex(KnnIndex&& other) noexcept
    : dim_(other.dim_),
      metric_(other.metric_),
      storage_(other.storage_),
      data_(std::move(other.data_)),
      payloads_(std::move(other.payloads_)),
      norms_(std::move(other.norms_)),
      codec_(std::move(other.codec_)),
      codes_(std::move(other.codes_)),
      quantized_(other.quantized_.load(std::memory_order_acquire)) {}

KnnIndex& KnnIndex::operator=(KnnIndex&& other) noexcept {
  if (this == &other) return *this;
  dim_ = other.dim_;
  metric_ = other.metric_;
  storage_ = other.storage_;
  data_ = std::move(other.data_);
  payloads_ = std::move(other.payloads_);
  norms_ = std::move(other.norms_);
  codec_ = std::move(other.codec_);
  codes_ = std::move(other.codes_);
  quantized_.store(other.quantized_.load(std::memory_order_acquire),
                   std::memory_order_release);
  return *this;
}

void KnnIndex::Add(size_t payload, const std::vector<float>& vec) {
  TSFM_CHECK_EQ(vec.size(), dim_);
  payloads_.push_back(payload);
  data_.insert(data_.end(), vec.begin(), vec.end());
  if (storage_ == Storage::kSq8 &&
      quantized_.load(std::memory_order_acquire)) {
    // The codec is already pinned (trained or seeded): encode straight
    // through it so the row joins the quantized scan.
    codes_.resize(codes_.size() + dim_);
    uint8_t* code = codes_.data() + codes_.size() - dim_;
    codec_.EncodeRow(vec.data(), code);
    norms_.push_back(codec_.DecodedNorm(code));
    return;
  }
  norms_.push_back(Norm(vec.data(), dim_));
}

void KnnIndex::EnsureQuantized() const {
  if (quantized_.load(std::memory_order_acquire)) return;
  MutexLock lock(&quantize_mu_);
  if (quantized_.load(std::memory_order_relaxed)) return;
  const size_t n = payloads_.size();
  codec_ = Sq8Codec::Train(data_.data(), n, dim_);
  codes_.resize(n * dim_);
  for (size_t r = 0; r < n; ++r) {
    uint8_t* code = codes_.data() + r * dim_;
    codec_.EncodeRow(data_.data() + r * dim_, code);
    // Cosine ranks against the norms of what the scan actually sees — the
    // decoded rows — not the original floats.
    norms_[r] = codec_.DecodedNorm(code);
  }
  quantized_.store(true, std::memory_order_release);
}

void KnnIndex::SeedSq8Codec(Sq8Codec codec) {
  TSFM_CHECK(storage_ == Storage::kSq8);
  TSFM_CHECK(payloads_.empty());
  TSFM_CHECK_EQ(codec.dim(), dim_);
  codec_ = std::move(codec);
  quantized_.store(true, std::memory_order_release);
}

const Sq8Codec* KnnIndex::sq8_codec() const {
  if (storage_ != Storage::kSq8) return nullptr;
  EnsureQuantized();
  return &codec_;
}

std::vector<std::pair<size_t, float>> KnnIndex::Search(const std::vector<float>& query,
                                                       size_t k) const {
  return SearchBatch({query}, k).front();
}

std::vector<std::vector<std::pair<size_t, float>>> KnnIndex::SearchBatch(
    const std::vector<std::vector<float>>& queries, size_t k,
    ThreadPool* pool) const {
  std::vector<std::vector<std::pair<size_t, float>>> results(queries.size());
  if (k == 0 || payloads_.empty()) return results;
  // Wrong-dimension queries keep their (empty) slot.
  std::vector<size_t> valid;
  valid.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].size() == dim_) valid.push_back(i);
  }
  if (valid.empty()) return results;
  const bool sq8 = storage_ == Storage::kSq8;
  if (sq8) EnsureQuantized();

  // Pack queries into chunks of up to kChunkQueries and give each chunk
  // one multi-query pass over the rows; cosine normalization (and the
  // zero-norm -> kMaxCosineDistance rule) lives in the kernel seam, not
  // here. The chunk bounds the scan's block buffer (512 rows x chunk
  // floats) and is the unit of pool parallelism; per-query results do not
  // depend on which chunk a query lands in (the multi kernels' per-pair
  // values are batch-size-invariant), so chunked, pooled, and serial
  // execution all return bit-identical hits.
  constexpr size_t kChunkQueries = 8;
  const size_t num_chunks = (valid.size() + kChunkQueries - 1) / kChunkQueries;
  auto run_chunk = [&](size_t c) {
    const size_t lo = c * kChunkQueries;
    const size_t hi = std::min(valid.size(), lo + kChunkQueries);
    const size_t count = hi - lo;
    std::vector<float> packed(count * dim_);
    for (size_t j = 0; j < count; ++j) {
      const std::vector<float>& query = queries[valid[lo + j]];
      std::copy(query.begin(), query.end(), packed.begin() + j * dim_);
    }
    std::vector<std::vector<ScanHit>> hits =
        sq8 ? ScanTopKMultiSq8(packed.data(), count, codes_.data(), codec_,
                               norms_.data(), payloads_.size(), metric_, k)
            : ScanTopKMulti(packed.data(), count, data_.data(), norms_.data(),
                            payloads_.size(), dim_, metric_, k);
    for (size_t j = 0; j < count; ++j) {
      auto& out = results[valid[lo + j]];
      out.resize(hits[j].size());
      for (size_t h = 0; h < hits[j].size(); ++h) {
        out[h] = {payloads_[hits[j][h].row], hits[j][h].distance};
      }
    }
  };
  if (pool != nullptr && num_chunks > 1) {
    ParallelFor(pool, 0, num_chunks, run_chunk);
  } else {
    for (size_t c = 0; c < num_chunks; ++c) run_chunk(c);
  }
  return results;
}

}  // namespace tsfm::search
