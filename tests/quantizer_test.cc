// The SQ8 codec and the quantized flat index built on it: calibration
// shape, the scale/2 round-trip error bound, encode monotonicity, codec
// persistence, ScanTopKMultiSq8 against a decoded-float reference, and the
// KnnIndex-level recall + format round-trip guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "search/distance_kernels.h"
#include "search/knn_index.h"
#include "search/quantizer.h"
#include "search/vector_index.h"
#include "test_util.h"
#include "util/random.h"

namespace tsfm::search {
namespace {

using testutil::RandomRows;
using testutil::RandomVec;

// ----------------------------------------------------------------- codec

TEST(Sq8CodecTest, TrainRecordsPerDimensionRange) {
  // Two rows straddling known ranges per dim.
  const size_t dim = 3;
  const std::vector<float> rows = {-1.0f, 2.0f, 5.0f,   // row 0
                                   3.0f, 2.0f, -5.0f};  // row 1
  const Sq8Codec codec = Sq8Codec::Train(rows.data(), 2, dim);
  ASSERT_TRUE(codec.trained());
  ASSERT_EQ(codec.dim(), dim);
  EXPECT_EQ(codec.offset()[0], -1.0f);
  EXPECT_EQ(codec.scale()[0], 4.0f / 255.0f);
  // Constant dim: offset is the constant, scale stays 1 so decode is exact.
  EXPECT_EQ(codec.offset()[1], 2.0f);
  EXPECT_EQ(codec.scale()[1], 1.0f);
  EXPECT_EQ(codec.offset()[2], -5.0f);
  EXPECT_EQ(codec.scale()[2], 10.0f / 255.0f);
}

TEST(Sq8CodecTest, RoundTripErrorBoundedByHalfScale) {
  Rng rng(71);
  for (size_t dim : {1u, 7u, 19u, 64u, 130u}) {
    const auto rows = RandomRows(&rng, 50, dim);
    const Sq8Codec codec = Sq8Codec::Train(rows.data(), 50, dim);
    std::vector<uint8_t> code(dim);
    std::vector<float> decoded(dim);
    for (size_t r = 0; r < 50; ++r) {
      codec.EncodeRow(rows.data() + r * dim, code.data());
      codec.DecodeRow(code.data(), decoded.data());
      for (size_t i = 0; i < dim; ++i) {
        // round() puts every in-range value within half a quantization
        // step of its reconstruction (small float slack for the affine
        // arithmetic itself).
        const float bound = codec.scale()[i] * 0.5f * (1.0f + 1e-4f) + 1e-6f;
        EXPECT_LE(std::abs(decoded[i] - rows[r * dim + i]), bound)
            << "dim " << dim << " row " << r << " component " << i;
      }
    }
  }
}

TEST(Sq8CodecTest, ConstantDimensionDecodesExactly) {
  const size_t dim = 5;
  std::vector<float> rows(3 * dim, 4.25f);
  const Sq8Codec codec = Sq8Codec::Train(rows.data(), 3, dim);
  std::vector<uint8_t> code(dim);
  std::vector<float> decoded(dim);
  codec.EncodeRow(rows.data(), code.data());
  codec.DecodeRow(code.data(), decoded.data());
  for (size_t i = 0; i < dim; ++i) EXPECT_EQ(decoded[i], 4.25f);
}

TEST(Sq8CodecTest, EncodeIsMonotonePerDimension) {
  // Calibration monotonicity: a larger value never encodes below a smaller
  // one in the same dimension (equal codes are fine — that is what
  // quantization does).
  Rng rng(73);
  const size_t dim = 9;
  const auto rows = RandomRows(&rng, 40, dim);
  const Sq8Codec codec = Sq8Codec::Train(rows.data(), 40, dim);
  std::vector<float> probe(dim, 0.0f);
  std::vector<uint8_t> prev(dim), cur(dim);
  for (size_t i = 0; i < dim; ++i) probe[i] = codec.offset()[i] - 1.0f;
  codec.EncodeRow(probe.data(), prev.data());
  for (int step = 0; step < 64; ++step) {
    for (size_t i = 0; i < dim; ++i) {
      probe[i] += codec.scale()[i] * 8.0f;  // sweep through the range
    }
    codec.EncodeRow(probe.data(), cur.data());
    for (size_t i = 0; i < dim; ++i) {
      EXPECT_GE(cur[i], prev[i]) << "dim " << i << " step " << step;
    }
    std::swap(prev, cur);
  }
}

TEST(Sq8CodecTest, OutOfRangeValuesClampToRangeEdges) {
  const size_t dim = 2;
  const std::vector<float> rows = {0.0f, -1.0f, 10.0f, 1.0f};
  const Sq8Codec codec = Sq8Codec::Train(rows.data(), 2, dim);
  const std::vector<float> below = {-100.0f, -100.0f};
  const std::vector<float> above = {100.0f, 100.0f};
  std::vector<uint8_t> code(dim);
  codec.EncodeRow(below.data(), code.data());
  EXPECT_EQ(code[0], 0);
  EXPECT_EQ(code[1], 0);
  codec.EncodeRow(above.data(), code.data());
  EXPECT_EQ(code[0], 255);
  EXPECT_EQ(code[1], 255);
}

TEST(Sq8CodecTest, DecodedNormMatchesDecodeThenNorm) {
  Rng rng(79);
  const size_t dim = 33;
  const auto rows = RandomRows(&rng, 8, dim);
  const Sq8Codec codec = Sq8Codec::Train(rows.data(), 8, dim);
  std::vector<uint8_t> code(dim);
  std::vector<float> decoded(dim);
  for (size_t r = 0; r < 8; ++r) {
    codec.EncodeRow(rows.data() + r * dim, code.data());
    codec.DecodeRow(code.data(), decoded.data());
    float sq = 0.0f;
    for (float v : decoded) sq += v * v;
    EXPECT_NEAR(codec.DecodedNorm(code.data()), std::sqrt(sq),
                1e-4f * (1.0f + std::sqrt(sq)));
  }
}

TEST(Sq8CodecTest, SaveLoadRoundTripsBitExactly) {
  Rng rng(83);
  const size_t dim = 21;
  const auto rows = RandomRows(&rng, 30, dim);
  const Sq8Codec codec = Sq8Codec::Train(rows.data(), 30, dim);
  std::stringstream buf;
  ASSERT_TRUE(codec.Save(buf).ok());
  auto loaded = Sq8Codec::Load(buf, dim);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().scale(), codec.scale());
  EXPECT_EQ(loaded.value().offset(), codec.offset());
}

TEST(Sq8CodecTest, LoadRejectsWrongDimAndGarbage) {
  Rng rng(89);
  const auto rows = RandomRows(&rng, 5, 8);
  const Sq8Codec codec = Sq8Codec::Train(rows.data(), 5, 8);
  std::stringstream buf;
  ASSERT_TRUE(codec.Save(buf).ok());
  EXPECT_FALSE(Sq8Codec::Load(buf, 9).ok());
  std::stringstream garbage("not a codec section at all");
  EXPECT_FALSE(Sq8Codec::Load(garbage, 8).ok());
  std::stringstream empty;
  EXPECT_FALSE(Sq8Codec::Load(empty, 8).ok());
}

TEST(Sq8CodecTest, FromPartsRejectsBadCalibration) {
  EXPECT_FALSE(Sq8Codec::FromParts({1.0f, 0.0f}, {0.0f, 0.0f}).ok());
  EXPECT_FALSE(Sq8Codec::FromParts({1.0f}, {0.0f, 0.0f}).ok());
  EXPECT_TRUE(Sq8Codec::FromParts({1.0f, 2.0f}, {0.0f, -3.0f}).ok());
}

// ------------------------------------------------------ ScanTopKMultiSq8

TEST(Sq8ScanTest, MatchesFloatScanOverDecodedRows) {
  // The rescore contract: ScanTopKMultiSq8's output must equal
  // ScanTopKMulti run on the decoded rows — same ids, distances within the
  // kernel tolerance.
  Rng rng(97);
  const size_t dim = 19, rows = 400;
  const auto data = RandomRows(&rng, rows, dim);
  const Sq8Codec codec = Sq8Codec::Train(data.data(), rows, dim);
  std::vector<uint8_t> codes(rows * dim);
  std::vector<float> decoded(rows * dim);
  std::vector<float> norms(rows);
  for (size_t r = 0; r < rows; ++r) {
    codec.EncodeRow(data.data() + r * dim, codes.data() + r * dim);
    codec.DecodeRow(codes.data() + r * dim, decoded.data() + r * dim);
    norms[r] = codec.DecodedNorm(codes.data() + r * dim);
  }
  const auto query = RandomVec(&rng, dim);
  for (const KernelDispatch* kd : {&ScalarKernels(), &BestKernels()}) {
    for (Metric metric : {Metric::kCosine, Metric::kL2}) {
      for (size_t k : {1u, 10u, 63u, 400u}) {
        const auto expected =
            ScanTopKMulti(*kd, query.data(), 1, decoded.data(), norms.data(),
                          rows, dim, metric, k)[0];
        const auto got =
            ScanTopKMultiSq8(*kd, query.data(), 1, codes.data(), codec,
                             norms.data(), rows, metric, k)[0];
        ASSERT_EQ(got.size(), expected.size())
            << kd->name << " k=" << k;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].row, expected[i].row)
              << kd->name << " metric " << static_cast<int>(metric)
              << " k=" << k << " i=" << i;
          const float scale = std::max(
              {1.0f, std::abs(got[i].distance), std::abs(expected[i].distance)});
          EXPECT_LE(std::abs(got[i].distance - expected[i].distance),
                    1e-4f * scale);
        }
      }
    }
  }
}

TEST(Sq8ScanTest, DegenerateInputs) {
  const Sq8Codec codec = Sq8Codec::Train(nullptr, 0, 4);
  const std::vector<float> query = {1.0f, 0.0f, 0.0f, 0.0f};
  EXPECT_TRUE(ScanTopKMultiSq8(query.data(), 1, nullptr, codec, nullptr, 0,
                               Metric::kL2, 5)[0]
                  .empty());
  const std::vector<uint8_t> codes = {1, 2, 3, 4};
  const std::vector<float> norms = {1.0f};
  EXPECT_TRUE(ScanTopKMultiSq8(query.data(), 1, codes.data(), codec,
                               norms.data(), 1, Metric::kCosine, 0)[0]
                  .empty());
}

// ------------------------------------------------------- KnnIndex (kSq8)

TEST(Sq8KnnIndexTest, RecallAtTenAgainstFloatFlat) {
  // The acceptance bound: over a normal corpus, sq8 + exact rescore keeps
  // recall@10 >= 0.99 vs the float flat scan. Recall is tie-aware: on
  // Gaussian data the 10th and 11th neighbours are often separated by less
  // than one quantization step, and swapping such effective ties is within
  // the codec's contract, so a returned row also counts as a hit when its
  // exact float distance is within 0.1% of the gold 10th distance.
  Rng rng(101);
  const size_t dim = 64, n = 2000, queries = 50, k = 10;
  for (Metric metric : {Metric::kCosine, Metric::kL2}) {
    KnnIndex flat(dim, metric);
    KnnIndex sq8(dim, metric, Storage::kSq8);
    for (size_t r = 0; r < n; ++r) {
      const auto v = RandomVec(&rng, dim);
      flat.Add(r, v);
      sq8.Add(r, v);
    }
    double sum = 0.0;
    for (size_t q = 0; q < queries; ++q) {
      const auto query = RandomVec(&rng, dim);
      const auto all = flat.Search(query, n);
      ASSERT_GE(all.size(), k);
      std::unordered_map<size_t, float> float_dist;
      for (const auto& [p, d] : all) float_dist[p] = d;
      const float kth = all[k - 1].second;
      const float cutoff = kth + 1e-3f * std::max(1.0f, std::fabs(kth));
      size_t hits = 0;
      for (const auto& [p, d] : sq8.Search(query, k)) {
        hits += float_dist.at(p) <= cutoff;
      }
      sum += static_cast<double>(hits) / static_cast<double>(k);
    }
    const double recall = sum / static_cast<double>(queries);
    EXPECT_GE(recall, 0.99) << "metric " << static_cast<int>(metric);
  }
}

TEST(Sq8KnnIndexTest, MakeVectorIndexHonorsStorage) {
  IndexOptions options;
  options.storage = Storage::kSq8;
  auto index = MakeVectorIndex(8, options);
  const auto* flat = dynamic_cast<const KnnIndex*>(index.get());
  ASSERT_NE(flat, nullptr);
  EXPECT_EQ(flat->storage(), Storage::kSq8);
  EXPECT_NE(flat->sq8_codec(), nullptr);  // trains (empty) on demand
}

TEST(Sq8KnnIndexTest, DistancesLiveInDecodedSpace) {
  // An sq8 index queried with one of its own (encoded) rows must report a
  // distance near zero — the rescore ranks decoded rows, not proxies.
  Rng rng(109);
  const size_t dim = 24;
  KnnIndex index(dim, Metric::kL2, Storage::kSq8);
  std::vector<std::vector<float>> rows;
  for (size_t r = 0; r < 50; ++r) {
    rows.push_back(RandomVec(&rng, dim));
    index.Add(r, rows.back());
  }
  const auto hits = index.Search(rows[7], 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, 7u);
  // Bounded by the codec's round-trip error, far below inter-row L2 (~7).
  EXPECT_LT(hits[0].second, 0.1f);
}

}  // namespace
}  // namespace tsfm::search
