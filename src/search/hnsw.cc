#include "search/hnsw.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <queue>
#include <unordered_set>

#include "search/distance_kernels.h"
#include "search/stream_io.h"
#include "util/logging.h"

namespace tsfm::search {

using io::ReadPod;
using io::WritePod;

HnswIndex::HnswIndex(size_t dim, HnswOptions options, Metric metric)
    : dim_(dim), options_(options), metric_(metric), level_rng_(options.seed) {}

float HnswIndex::Distance(const float* a, const float* b) const {
  if (metric_ == Metric::kL2) return std::sqrt(L2Sq(a, b, dim_));
  return 1.0f - Dot(a, b, dim_);  // vectors are unit-norm under cosine
}

std::vector<std::pair<float, uint32_t>> HnswIndex::SearchLayer(const float* query,
                                                               uint32_t entry,
                                                               size_t ef,
                                                               int layer) const {
  std::unordered_set<uint32_t> visited{entry};
  // Max-heap of current results (worst on top), min-heap of candidates.
  std::priority_queue<std::pair<float, uint32_t>> results;
  std::priority_queue<std::pair<float, uint32_t>,
                      std::vector<std::pair<float, uint32_t>>, std::greater<>>
      candidates;
  float d0 = Distance(query, VectorOf(entry));
  results.emplace(d0, entry);
  candidates.emplace(d0, entry);

  while (!candidates.empty()) {
    auto [dist, node] = candidates.top();
    if (dist > results.top().first && results.size() >= ef) break;
    candidates.pop();
    const auto& nbrs = nodes_[node].neighbours[layer];
    for (uint32_t nb : nbrs) {
      if (!visited.insert(nb).second) continue;
      float d = Distance(query, VectorOf(nb));
      if (results.size() < ef || d < results.top().first) {
        results.emplace(d, nb);
        candidates.emplace(d, nb);
        if (results.size() > ef) results.pop();
      }
    }
  }
  std::vector<std::pair<float, uint32_t>> out;
  out.reserve(results.size());
  while (!results.empty()) {
    out.push_back(results.top());
    results.pop();
  }
  std::reverse(out.begin(), out.end());  // nearest first
  return out;
}

void HnswIndex::SelectNeighbours(std::vector<std::pair<float, uint32_t>>* candidates,
                                 size_t m) const {
  std::sort(candidates->begin(), candidates->end());
  if (candidates->size() > m) candidates->resize(m);
}

void HnswIndex::Add(size_t payload, const std::vector<float>& vec) {
  TSFM_CHECK_EQ(vec.size(), dim_);
  if (metric_ == Metric::kL2) {
    data_.insert(data_.end(), vec.begin(), vec.end());
  } else {
    // Normalize so inner product equals cosine similarity.
    const float norm = Norm(vec.data(), dim_);
    const float inv = norm > 1e-12f ? 1.0f / norm : 0.0f;
    for (float v : vec) data_.push_back(v * inv);
  }
  payloads_.push_back(payload);

  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  // Geometric level assignment: P(level >= l) = (1/2)^l.
  int level = 0;
  while (level_rng_.Bernoulli(0.5) && level < 16) ++level;
  Node node;
  node.level = level;
  node.neighbours.resize(level + 1);
  nodes_.push_back(std::move(node));

  if (id == 0) {
    max_level_ = level;
    entry_point_ = 0;
    return;
  }

  const float* q = VectorOf(id);
  uint32_t entry = entry_point_;
  // Greedy descent through layers above the new node's level.
  for (int l = max_level_; l > level; --l) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (uint32_t nb : nodes_[entry].neighbours[l]) {
        if (Distance(q, VectorOf(nb)) < Distance(q, VectorOf(entry))) {
          entry = nb;
          improved = true;
        }
      }
    }
  }
  // Insert with beam search on each layer from min(level, max_level_) down.
  for (int l = std::min(level, max_level_); l >= 0; --l) {
    auto found = SearchLayer(q, entry, options_.ef_construction, l);
    auto selected = found;
    SelectNeighbours(&selected, options_.m);
    for (auto& [d, nb] : selected) {
      nodes_[id].neighbours[l].push_back(nb);
      nodes_[nb].neighbours[l].push_back(id);
      // Prune over-full neighbour lists.
      auto& list = nodes_[nb].neighbours[l];
      if (list.size() > options_.m * 2) {
        std::vector<std::pair<float, uint32_t>> scored;
        const float* nbvec = VectorOf(nb);
        scored.reserve(list.size());
        for (uint32_t x : list) scored.emplace_back(Distance(nbvec, VectorOf(x)), x);
        SelectNeighbours(&scored, options_.m);
        list.clear();
        for (auto& [dd, x] : scored) list.push_back(x);
      }
    }
    if (!found.empty()) entry = found.front().second;
  }
  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = id;
  }
}

std::vector<std::pair<size_t, float>> HnswIndex::Search(
    const std::vector<float>& query, size_t k) const {
  if (k == 0 || query.size() != dim_ || nodes_.empty()) return {};
  std::vector<float> q = query;
  if (metric_ != Metric::kL2) {
    const float norm = Norm(q.data(), dim_);
    if (norm > 1e-12f) {
      for (auto& v : q) v /= norm;
    }
  }

  uint32_t entry = entry_point_;
  for (int l = max_level_; l > 0; --l) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (uint32_t nb : nodes_[entry].neighbours[l]) {
        if (Distance(q.data(), VectorOf(nb)) < Distance(q.data(), VectorOf(entry))) {
          entry = nb;
          improved = true;
        }
      }
    }
  }
  auto found =
      SearchLayer(q.data(), entry, std::max(options_.ef_search, k), /*layer=*/0);
  std::vector<std::pair<size_t, float>> out;
  out.reserve(std::min(k, found.size()));
  for (size_t i = 0; i < found.size() && i < k; ++i) {
    out.emplace_back(payloads_[found[i].second], found[i].first);
  }
  return out;
}

Status HnswIndex::SaveGraph(std::ostream& out) const {
  WritePod(out, static_cast<int32_t>(max_level_));
  WritePod(out, entry_point_);
  for (const Node& node : nodes_) {
    WritePod(out, static_cast<int32_t>(node.level));
    for (const auto& layer : node.neighbours) {
      WritePod(out, static_cast<uint64_t>(layer.size()));
      out.write(reinterpret_cast<const char*>(layer.data()),
                static_cast<std::streamsize>(layer.size() * sizeof(uint32_t)));
    }
  }
  if (!out) return Status::IoError("hnsw graph write failed");
  return Status::OK();
}

Status HnswIndex::LoadGraph(std::vector<float> rows, std::istream& in) {
  TSFM_CHECK(nodes_.empty());
  TSFM_CHECK_EQ(rows.size() % dim_, 0u);
  const size_t n = rows.size() / dim_;
  int32_t max_level = -1;
  uint32_t entry_point = 0;
  if (!ReadPod(in, &max_level) || !ReadPod(in, &entry_point)) {
    return Status::IoError("truncated hnsw graph");
  }
  // Every allocation below is bounded by the node count, which the rows
  // already read imply: a level by 64, a neighbour list by n.
  std::vector<Node> nodes(n);
  for (Node& node : nodes) {
    int32_t level = 0;
    if (!ReadPod(in, &level)) return Status::IoError("truncated hnsw graph");
    if (level < 0 || level > 64) return Status::ParseError("implausible hnsw level");
    node.level = level;
    node.neighbours.resize(static_cast<size_t>(level) + 1);
    for (auto& layer : node.neighbours) {
      uint64_t count = 0;
      if (!ReadPod(in, &count) || count > n) {
        return Status::IoError("truncated hnsw neighbour list");
      }
      layer.resize(count);
      in.read(reinterpret_cast<char*>(layer.data()),
              static_cast<std::streamsize>(count * sizeof(uint32_t)));
      if (!in) return Status::IoError("truncated hnsw neighbour list");
      for (uint32_t nb : layer) {
        if (nb >= n) return Status::ParseError("hnsw neighbour out of range");
      }
    }
  }
  // Graph invariants Search relies on for safe indexing: the entry point
  // exists and carries the top level, and a node listed as a neighbour at
  // layer l has a neighbour list for layer l itself.
  if (n > 0) {
    if (entry_point >= n || nodes[entry_point].level != max_level) {
      return Status::ParseError("hnsw entry point inconsistent with graph");
    }
    for (const Node& node : nodes) {
      for (size_t l = 0; l < node.neighbours.size(); ++l) {
        for (uint32_t nb : node.neighbours[l]) {
          if (nodes[nb].level < static_cast<int>(l)) {
            return Status::ParseError("hnsw neighbour below its layer");
          }
        }
      }
    }
  } else if (max_level != -1) {
    return Status::ParseError("hnsw entry point inconsistent with graph");
  }
  data_ = std::move(rows);
  payloads_.resize(n);
  for (size_t r = 0; r < n; ++r) payloads_[r] = r;
  nodes_ = std::move(nodes);
  max_level_ = max_level;
  entry_point_ = entry_point;
  return Status::OK();
}

}  // namespace tsfm::search
