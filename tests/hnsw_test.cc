#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "search/hnsw.h"
#include "search/knn_index.h"
#include "util/random.h"

namespace tsfm::search {
namespace {

std::vector<float> RandomUnit(size_t dim, Rng* rng) {
  std::vector<float> v(dim);
  double norm = 0;
  for (auto& x : v) {
    x = static_cast<float>(rng->Normal());
    norm += static_cast<double>(x) * x;
  }
  norm = std::sqrt(norm);
  for (auto& x : v) x = static_cast<float>(x / norm);
  return v;
}

TEST(HnswTest, EmptyIndexReturnsNothing) {
  HnswIndex index(4);
  EXPECT_TRUE(index.Search({1, 0, 0, 0}, 5).empty());
}

TEST(HnswTest, SingleItem) {
  HnswIndex index(3);
  index.Add(42, {1, 0, 0});
  auto hits = index.Search({1, 0, 0}, 3);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, 42u);
  EXPECT_NEAR(hits[0].second, 0.0f, 1e-5);
}

TEST(HnswTest, ZeroVectorDegradesToDistanceOne) {
  // Normalization on insert erases norms, so HNSW cannot apply the flat
  // backend's zero-norm -> kMaxCosineDistance rule: a zero-norm vector
  // degrades to the zero vector at distance 1.0 (documented in hnsw.h).
  // This pins the divergence so a silent change fails loudly.
  HnswIndex index(2);
  index.Add(0, {0, 0});
  index.Add(1, {1, 1});
  auto hits = index.Search({1, 1}, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].first, 1u);
  EXPECT_EQ(hits[1].first, 0u);
  EXPECT_NEAR(hits[1].second, 1.0f, 1e-5);
}

TEST(HnswTest, ExactMatchRanksFirst) {
  Rng rng(1);
  HnswIndex index(16);
  std::vector<std::vector<float>> vecs;
  for (size_t i = 0; i < 200; ++i) {
    vecs.push_back(RandomUnit(16, &rng));
    index.Add(i, vecs.back());
  }
  for (size_t probe : {0u, 50u, 199u}) {
    auto hits = index.Search(vecs[probe], 5);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits[0].first, probe);
  }
}

TEST(HnswTest, RecallAgainstBruteForce) {
  Rng rng(2);
  const size_t n = 500, dim = 24, k = 10;
  HnswIndex hnsw(dim);
  KnnIndex brute(dim, Metric::kCosine);
  std::vector<std::vector<float>> vecs;
  for (size_t i = 0; i < n; ++i) {
    vecs.push_back(RandomUnit(dim, &rng));
    hnsw.Add(i, vecs.back());
    brute.Add(i, vecs.back());
  }
  double recall_sum = 0;
  const size_t queries = 20;
  for (size_t q = 0; q < queries; ++q) {
    auto query = RandomUnit(dim, &rng);
    auto exact = brute.Search(query, k);
    auto approx = hnsw.Search(query, k);
    std::unordered_set<size_t> gold;
    for (auto& [p, d] : exact) gold.insert(p);
    size_t hits = 0;
    for (auto& [p, d] : approx) hits += gold.count(p);
    recall_sum += static_cast<double>(hits) / k;
  }
  // HNSW with default ef should stay well above 80% recall at this scale.
  EXPECT_GT(recall_sum / queries, 0.8);
}

TEST(HnswTest, DistancesAreSortedAscending) {
  Rng rng(3);
  HnswIndex index(8);
  for (size_t i = 0; i < 100; ++i) index.Add(i, RandomUnit(8, &rng));
  auto hits = index.Search(RandomUnit(8, &rng), 10);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i].second, hits[i - 1].second);
  }
}

TEST(HnswTest, UnnormalizedInputsHandled) {
  HnswIndex index(2);
  index.Add(0, {10, 0});  // normalized internally
  index.Add(1, {0, 0.1f});
  auto hits = index.Search({5, 0}, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].first, 0u);
}

TEST(HnswTest, KLargerThanIndexSize) {
  Rng rng(4);
  HnswIndex index(4);
  for (size_t i = 0; i < 3; ++i) index.Add(i, RandomUnit(4, &rng));
  EXPECT_LE(index.Search(RandomUnit(4, &rng), 50).size(), 3u);
}

TEST(HnswTest, DegenerateQueriesReturnEmpty) {
  Rng rng(5);
  HnswIndex index(4);
  for (size_t i = 0; i < 10; ++i) index.Add(i, RandomUnit(4, &rng));
  EXPECT_TRUE(index.Search(RandomUnit(4, &rng), 0).empty());  // k == 0
  EXPECT_TRUE(index.Search({1, 0}, 5).empty());               // dim mismatch
}

TEST(HnswTest, RecallAtTenAtLeastPointNineVsExact) {
  // The flat and HNSW backends index the same random corpus; with a wide
  // search beam the graph must recover >= 90% of the exact top-10.
  Rng rng(6);
  const size_t n = 1000, dim = 24, k = 10;
  HnswOptions options;
  options.ef_search = 128;
  HnswIndex hnsw(dim, options);
  KnnIndex brute(dim, Metric::kCosine);
  for (size_t i = 0; i < n; ++i) {
    auto vec = RandomUnit(dim, &rng);
    hnsw.Add(i, vec);
    brute.Add(i, vec);
  }
  double recall_sum = 0;
  const size_t queries = 30;
  for (size_t q = 0; q < queries; ++q) {
    auto query = RandomUnit(dim, &rng);
    std::unordered_set<size_t> gold;
    for (auto& [p, d] : brute.Search(query, k)) gold.insert(p);
    size_t hits = 0;
    for (auto& [p, d] : hnsw.Search(query, k)) hits += gold.count(p);
    recall_sum += static_cast<double>(hits) / k;
  }
  EXPECT_GE(recall_sum / queries, 0.9);
}

TEST(HnswTest, L2NeighboursAgreeWithFlatScan) {
  // Metric parity: with IndexOptions.metric = kL2 both backends must rank
  // by Euclidean distance. On a small corpus with a wide beam the graph
  // recovers (nearly) the exact L2 top-10.
  Rng rng(10);
  const size_t n = 200, dim = 12, k = 10;
  HnswOptions options;
  options.ef_search = 128;
  HnswIndex hnsw(dim, options, Metric::kL2);
  KnnIndex brute(dim, Metric::kL2);
  for (size_t i = 0; i < n; ++i) {
    // Deliberately unnormalized: under L2 the vector length matters, which
    // is exactly what cosine would erase.
    std::vector<float> vec(dim);
    for (auto& x : vec) x = static_cast<float>(rng.Normal() * 3.0);
    hnsw.Add(i, vec);
    brute.Add(i, vec);
  }
  EXPECT_EQ(hnsw.metric(), Metric::kL2);
  double recall_sum = 0;
  const size_t queries = 20;
  for (size_t q = 0; q < queries; ++q) {
    std::vector<float> query(dim);
    for (auto& x : query) x = static_cast<float>(rng.Normal() * 3.0);
    auto exact = brute.Search(query, k);
    auto approx = hnsw.Search(query, k);
    ASSERT_FALSE(exact.empty());
    // Top-1 must agree and carry the same distance value.
    ASSERT_FALSE(approx.empty());
    EXPECT_EQ(approx[0].first, exact[0].first);
    EXPECT_NEAR(approx[0].second, exact[0].second, 1e-4);
    std::unordered_set<size_t> gold;
    for (auto& [p, d] : exact) gold.insert(p);
    size_t hits = 0;
    for (auto& [p, d] : approx) hits += gold.count(p);
    recall_sum += static_cast<double>(hits) / k;
  }
  EXPECT_GE(recall_sum / queries, 0.9);
}

}  // namespace
}  // namespace tsfm::search
