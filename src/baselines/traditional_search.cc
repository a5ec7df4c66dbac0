#include "baselines/traditional_search.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "baselines/serialize_table.h"
#include "sketch/numerical_sketch.h"
#include "text/tokenizer.h"
#include "util/hash.h"
#include "util/logging.h"

namespace tsfm::baselines {

namespace {

double Cosine(const std::vector<float>& a, const std::vector<float>& b) {
  TSFM_CHECK_EQ(a.size(), b.size());
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na < 1e-12 || nb < 1e-12) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

std::vector<size_t> RankMapDescending(
    const std::unordered_map<size_t, double>& scores, size_t exclude) {
  std::vector<std::pair<size_t, double>> order;
  order.reserve(scores.size());
  for (const auto& [t, s] : scores) {
    if (t != exclude) order.emplace_back(t, s);
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<size_t> ranked;
  ranked.reserve(order.size());
  for (const auto& [t, s] : order) ranked.push_back(t);
  return ranked;
}

}  // namespace

// ---------------------------------------------------------------- LSH-Forest

LshForestJoinSearch::LshForestJoinSearch(const lakebench::SearchBenchmark* bench,
                                         size_t num_perm, size_t num_trees,
                                         size_t max_depth)
    : bench_(bench), num_perm_(num_perm) {
  forest_ = std::make_unique<LshForest>(num_perm, num_trees, max_depth);
  query_minhashes_.reserve(bench->tables.size());
  for (size_t t = 0; t < bench->tables.size(); ++t) {
    // Join benchmarks key on column 0; index every column regardless.
    const Table& table = bench->tables[t];
    MinHash first(num_perm);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      MinHash mh = MinHashOfSet(DistinctCells(table.column(c)), num_perm);
      if (c == 0) first = mh;
      forest_->Insert(std::to_string(t) + ":" + std::to_string(c), mh);
    }
    query_minhashes_.push_back(first);
  }
}

std::vector<size_t> LshForestJoinSearch::Rank(size_t query_table, size_t query_column,
                                              size_t k) const {
  MinHash mh =
      query_column == 0
          ? query_minhashes_[query_table]
          : MinHashOfSet(
                DistinctCells(bench_->tables[query_table].column(query_column)),
                num_perm_);
  std::vector<size_t> ranked;
  std::unordered_set<size_t> seen;
  for (const auto& key : forest_->Query(mh, k * 6)) {
    size_t table = std::stoul(key.substr(0, key.find(':')));
    if (table == query_table) continue;
    if (seen.insert(table).second) ranked.push_back(table);
  }
  return ranked;
}

// ----------------------------------------------------------------------- D3L

D3lUnionSearch::D3lUnionSearch(const lakebench::SearchBenchmark* bench,
                               const SbertLikeEncoder* encoder)
    : bench_(bench) {
  features_.resize(bench->tables.size());
  for (size_t t = 0; t < bench->tables.size(); ++t) {
    const Table& table = bench->tables[t];
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Column& col = table.column(c);
      ColumnFeatures f;
      f.values = MinHashOfSet(DistinctCells(col), 32);
      f.semantics = encoder->EmbedColumn(table, c);
      f.header_tokens = text::BasicTokenize(col.name);
      NumericalSketch ns = MakeNumericalSketch(ComputeColumnStats(col));
      f.numeric_profile.assign(ns.values.begin() + 3, ns.values.end());
      f.avg_width = ns.values[2];
      f.type = static_cast<int>(col.type);
      features_[t].push_back(std::move(f));
    }
  }
}

double D3lUnionSearch::ColumnScore(const ColumnFeatures& a,
                                   const ColumnFeatures& b) const {
  // Evidence 1: value overlap.
  double value_sim = a.values.EstimateJaccard(b.values);
  // Evidence 2: word-embedding similarity of values.
  double sem_sim = std::max(0.0, Cosine(a.semantics, b.semantics));
  // Evidence 3: header token overlap.
  std::unordered_set<std::string> ha(a.header_tokens.begin(), a.header_tokens.end());
  size_t inter = 0;
  std::unordered_set<std::string> hb(b.header_tokens.begin(), b.header_tokens.end());
  for (const auto& w : hb) {
    if (ha.count(w)) ++inter;
  }
  size_t uni = ha.size() + hb.size() - inter;
  double header_sim = uni > 0 ? static_cast<double>(inter) / uni : 0.0;
  // Evidence 4: numeric distribution similarity.
  double dist_sim = 0.0;
  if (a.type != 1 && b.type != 1) {
    dist_sim = std::max(0.0, Cosine(a.numeric_profile, b.numeric_profile));
  }
  // Evidence 5: format similarity (type match + cell width closeness).
  double format_sim = (a.type == b.type ? 0.5 : 0.0) +
                      0.5 / (1.0 + std::fabs(a.avg_width - b.avg_width));
  return (value_sim + sem_sim + header_sim + dist_sim + format_sim) / 5.0;
}

std::vector<size_t> D3lUnionSearch::Rank(size_t query_table, size_t k) const {
  (void)k;
  const auto& qcols = features_[query_table];
  std::unordered_map<size_t, double> scores;
  for (size_t t = 0; t < features_.size(); ++t) {
    if (t == query_table) continue;
    // Best match per query column, averaged.
    double total = 0.0;
    for (const auto& qc : qcols) {
      double best = 0.0;
      for (const auto& cc : features_[t]) {
        best = std::max(best, ColumnScore(qc, cc));
      }
      total += best;
    }
    scores[t] = qcols.empty() ? 0.0 : total / static_cast<double>(qcols.size());
  }
  return RankMapDescending(scores, query_table);
}

// -------------------------------------------------------------------- SANTOS

SantosUnionSearch::SantosUnionSearch(const lakebench::SearchBenchmark* bench,
                                     const SbertLikeEncoder* encoder) {
  (void)encoder;
  // Column semantic label: header hash plus a bottom-k sketch of the
  // distinct values. Bottom-k hashes are stable under row subsetting, which
  // is what lets SANTOS recognize slices of the same table as unionable.
  constexpr size_t kBottom = 4;
  relationship_sets_.resize(bench->tables.size());
  for (size_t t = 0; t < bench->tables.size(); ++t) {
    const Table& table = bench->tables[t];
    std::vector<uint64_t> header_hash;
    std::vector<std::vector<uint64_t>> bottoms;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      header_hash.push_back(Fnv1a64(table.column(c).name));
      std::vector<uint64_t> hashes;
      for (const auto& cell : DistinctCells(table.column(c))) {
        hashes.push_back(Fnv1a64(cell));
      }
      std::sort(hashes.begin(), hashes.end());
      hashes.resize(std::min(hashes.size(), kBottom));
      bottoms.push_back(std::move(hashes));
    }
    // One relationship signature per column pair and bottom-slot.
    for (size_t i = 0; i < header_hash.size(); ++i) {
      for (size_t j = i + 1; j < header_hash.size(); ++j) {
        uint64_t pair_base = HashCombine(header_hash[i], header_hash[j]);
        size_t slots = std::min(bottoms[i].size(), bottoms[j].size());
        for (size_t s = 0; s < slots; ++s) {
          relationship_sets_[t].push_back(
              HashCombine(pair_base, HashCombine(bottoms[i][s], bottoms[j][s])));
        }
        if (slots == 0) relationship_sets_[t].push_back(pair_base);
      }
    }
    std::sort(relationship_sets_[t].begin(), relationship_sets_[t].end());
  }
}

std::vector<size_t> SantosUnionSearch::Rank(size_t query_table, size_t k) const {
  (void)k;
  const auto& q = relationship_sets_[query_table];
  std::unordered_map<size_t, double> scores;
  for (size_t t = 0; t < relationship_sets_.size(); ++t) {
    if (t == query_table) continue;
    const auto& r = relationship_sets_[t];
    // Sorted-set intersection.
    size_t i = 0, j = 0, inter = 0;
    while (i < q.size() && j < r.size()) {
      if (q[i] == r[j]) {
        ++inter;
        ++i;
        ++j;
      } else if (q[i] < r[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    size_t uni = q.size() + r.size() - inter;
    scores[t] = uni > 0 ? static_cast<double>(inter) / uni : 0.0;
  }
  return RankMapDescending(scores, query_table);
}

// ------------------------------------------------------------------- Starmie

StarmieUnionSearch::StarmieUnionSearch(const lakebench::SearchBenchmark* bench,
                                       const SbertLikeEncoder* encoder,
                                       float context_weight)
    : bench_(bench) {
  contextual_.resize(bench->tables.size());
  for (size_t t = 0; t < bench->tables.size(); ++t) {
    const Table& table = bench->tables[t];
    auto base = encoder->EmbedColumns(table);
    if (base.empty()) continue;
    // Table context = mean of the column embeddings.
    std::vector<float> context(encoder->dim(), 0.0f);
    for (const auto& col : base) {
      for (size_t i = 0; i < context.size(); ++i) context[i] += col[i];
    }
    for (auto& v : context) v /= static_cast<float>(base.size());
    // Contextualize: column + context mix (the "whole-table context"
    // property of Starmie's contrastive encoder).
    for (auto& col : base) {
      for (size_t i = 0; i < col.size(); ++i) {
        col[i] = (1.0f - context_weight) * col[i] + context_weight * context[i];
      }
    }
    contextual_[t] = std::move(base);
  }
}

std::vector<size_t> StarmieUnionSearch::Rank(size_t query_table, size_t k) const {
  (void)k;
  const auto& qcols = contextual_[query_table];
  std::unordered_map<size_t, double> scores;
  for (size_t t = 0; t < contextual_.size(); ++t) {
    if (t == query_table) continue;
    const auto& cols = contextual_[t];
    if (cols.empty() || qcols.empty()) continue;
    // Greedy bipartite matching on cosine similarity.
    std::vector<std::pair<double, std::pair<size_t, size_t>>> edges;
    for (size_t i = 0; i < qcols.size(); ++i) {
      for (size_t j = 0; j < cols.size(); ++j) {
        edges.push_back({Cosine(qcols[i], cols[j]), {i, j}});
      }
    }
    std::sort(edges.begin(), edges.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::unordered_set<size_t> used_q, used_c;
    double total = 0.0;
    for (const auto& [sim, pair] : edges) {
      if (used_q.count(pair.first) || used_c.count(pair.second)) continue;
      used_q.insert(pair.first);
      used_c.insert(pair.second);
      total += sim;
    }
    scores[t] = total / static_cast<double>(qcols.size());
  }
  return RankMapDescending(scores, query_table);
}

// ------------------------------------------------------------------ WarpGate

WarpGateJoinSearch::WarpGateJoinSearch(const lakebench::SearchBenchmark* bench,
                                       const SbertLikeEncoder* encoder,
                                       size_t num_bits)
    : bench_(bench) {
  hasher_ = std::make_unique<SimHasher>(encoder->dim(), num_bits, /*seed=*/99);
  for (size_t t = 0; t < bench->tables.size(); ++t) {
    const Table& table = bench->tables[t];
    for (size_t c = 0; c < table.num_columns(); ++c) {
      embeddings_.push_back(encoder->EmbedColumn(table, c));
      codes_.push_back(hasher_->Hash(embeddings_.back()));
      column_of_.emplace_back(t, c);
    }
  }
}

std::vector<size_t> WarpGateJoinSearch::Rank(size_t query_table, size_t query_column,
                                             size_t k) const {
  // Find the query column's embedding in the precomputed store.
  std::vector<float> qemb;
  for (size_t i = 0; i < column_of_.size(); ++i) {
    if (column_of_[i] == std::make_pair(query_table, query_column)) {
      qemb = embeddings_[i];
      break;
    }
  }
  TSFM_CHECK(!qemb.empty());
  uint64_t qcode = hasher_->Hash(qemb);

  // SimHash LSH: shortlist by Hamming distance, refine by cosine.
  std::vector<std::pair<int, size_t>> shortlist;  // (hamming, column idx)
  for (size_t i = 0; i < codes_.size(); ++i) {
    if (column_of_[i].first == query_table) continue;
    shortlist.emplace_back(hasher_->HammingDistance(qcode, codes_[i]), i);
  }
  std::sort(shortlist.begin(), shortlist.end());
  if (shortlist.size() > k * 12) shortlist.resize(k * 12);

  std::unordered_map<size_t, double> scores;
  for (const auto& [ham, i] : shortlist) {
    double sim = Cosine(qemb, embeddings_[i]);
    size_t table = column_of_[i].first;
    auto it = scores.find(table);
    if (it == scores.end() || sim > it->second) scores[table] = sim;
  }
  return RankMapDescending(scores, query_table);
}

// ------------------------------------------------------------------ DeepJoin

DeepJoinSearch::DeepJoinSearch(const lakebench::SearchBenchmark* bench,
                               const SbertLikeEncoder* encoder)
    : bench_(bench), encoder_(encoder) {
  index_ = std::make_unique<search::HnswIndex>(encoder->dim());
  for (size_t t = 0; t < bench->tables.size(); ++t) {
    const Table& table = bench->tables[t];
    for (size_t c = 0; c < table.num_columns(); ++c) {
      index_->Add(column_of_.size(), encoder->Embed(DeepJoinColumnText(table, c)));
      column_of_.emplace_back(t, c);
    }
  }
}

std::vector<size_t> DeepJoinSearch::Rank(size_t query_table, size_t query_column,
                                         size_t k) const {
  std::vector<float> qemb =
      encoder_->Embed(DeepJoinColumnText(bench_->tables[query_table], query_column));
  // Over-retrieve columns so collapsing to tables still yields >= k results.
  std::unordered_map<size_t, double> scores;
  for (const auto& [column_id, dist] : index_->Search(qemb, k * 8)) {
    size_t table = column_of_[column_id].first;
    if (table == query_table) continue;
    double sim = 1.0 - dist;
    auto it = scores.find(table);
    if (it == scores.end() || sim > it->second) scores[table] = sim;
  }
  return RankMapDescending(scores, query_table);
}

}  // namespace tsfm::baselines
