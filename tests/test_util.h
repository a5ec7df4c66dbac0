// Shared helpers for the test suites: a scoped kernel-level pin, seeded
// random vector/table generators, a temp-file RAII that also sweeps shard
// side files, a whole-file reader, and the tie-aware recall@k used by the
// ANN acceptance bars.
// Header-only on purpose — the test binaries are built one .cc at a time.
#ifndef TSFM_TESTS_TEST_UTIL_H_
#define TSFM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/random.h"
#include "util/simd.h"

namespace tsfm::testutil {

/// Pins the process-wide kernel level (util/simd.h) for one scope, then
/// restores the automatic choice. Every kernel family follows it: the
/// distance kernels and nn::MatMul.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) {
    internal::OverrideSimdLevelForTest(level);
  }
  ~ScopedSimdLevel() { internal::OverrideSimdLevelForTest(std::nullopt); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;
};

inline std::vector<float> RandomVec(Rng* rng, size_t dim) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng->Normal());
  return v;
}

inline std::vector<float> RandomRows(Rng* rng, size_t rows, size_t dim) {
  std::vector<float> data;
  data.reserve(rows * dim);
  for (size_t r = 0; r < rows * dim; ++r) {
    data.push_back(static_cast<float>(rng->Normal()));
  }
  return data;
}

/// A deterministic lake corpus: tables with 1..3 columns each, plus
/// ready-made join and union queries drawn from the same seed.
struct Corpus {
  std::vector<std::string> ids;
  std::vector<std::vector<std::vector<float>>> tables;  // per table: columns
  std::vector<std::vector<float>> join_queries;
  std::vector<std::vector<std::vector<float>>> union_queries;
};

inline Corpus MakeCorpus(size_t num_tables, size_t dim, uint64_t seed,
                         size_t num_queries = 10) {
  Corpus corpus;
  Rng rng(seed);
  for (size_t t = 0; t < num_tables; ++t) {
    corpus.ids.push_back("table_" + std::to_string(t));
    std::vector<std::vector<float>> cols(1 + t % 3);
    for (auto& col : cols) col = RandomVec(&rng, dim);
    corpus.tables.push_back(std::move(cols));
  }
  for (size_t q = 0; q < num_queries; ++q) {
    corpus.join_queries.push_back(RandomVec(&rng, dim));
    corpus.union_queries.push_back(
        {RandomVec(&rng, dim), RandomVec(&rng, dim)});
  }
  return corpus;
}

/// \brief A path under gtest's temp dir, removed on scope exit along with
/// any side files that share its name as a prefix (lake shard files are
/// named `<path>.shard-N`, so one TempFile sweeps a whole saved lake).
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() {
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path target(path_);
    fs::remove(target, ec);
    const std::string prefix = target.filename().string() + ".";
    for (const auto& entry : fs::directory_iterator(target.parent_path(), ec)) {
      if (entry.path().filename().string().rfind(prefix, 0) == 0) {
        fs::remove(entry.path(), ec);
      }
    }
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The bytes of the file at `path` (empty when it cannot be read).
inline std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// \brief Tie-aware recall@k: the fraction of `ranked`'s first k entries
/// that appear anywhere in `gold`.
///
/// Callers pass a `gold` list that may be *longer* than k (every id whose
/// distance ties the k-th) so an approximate index is not penalized for
/// resolving a tie differently than the exact one.
inline double RecallAtK(const std::vector<std::string>& gold,
                        const std::vector<std::string>& ranked, size_t k) {
  const std::unordered_set<std::string> gold_set(gold.begin(), gold.end());
  size_t hits = 0;
  const size_t take = std::min(k, ranked.size());
  for (size_t i = 0; i < take; ++i) hits += gold_set.count(ranked[i]);
  return k == 0 ? 1.0 : static_cast<double>(hits) / static_cast<double>(k);
}

}  // namespace tsfm::testutil

#endif  // TSFM_TESTS_TEST_UTIL_H_
