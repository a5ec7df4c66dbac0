#include "search/lake_index.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <span>
#include <utility>

#include "search/quantizer.h"
#include "search/stream_io.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tsfm::search {

using io::ReadPod;
using io::WritePod;

namespace {

constexpr uint32_t kMagicV1 = 0x4c414b45;  // "LAKE" — legacy headerless format
constexpr uint32_t kMagicV2 = 0x4c414b32;  // "LAK2" — versioned header
// Version 2: backend/metric/hnsw header. Version 3 adds a storage word to
// the header and an Sq8Codec calibration section ("CSQ8") before the table
// records. Version 4 adds a churn section (base table count + tombstone
// list) between the header and the table records. Version 5 stores HNSW
// base rows as the graph holds them and appends the graph after the
// records (flat files are version 4's bytes). Save always writes version
// 5; Load reads every version.
constexpr uint32_t kFormatVersion = 5;

// Reads `len` bytes into `out` in bounded chunks, so a corrupt length
// fails at end of file instead of allocating `len` bytes up front.
bool ReadBytes(std::istream& in, uint64_t len, std::string* out) {
  char buf[4096];
  while (out->size() < len) {
    const auto n = static_cast<std::streamsize>(
        std::min<uint64_t>(sizeof(buf), len - out->size()));
    if (!in.read(buf, n)) return false;
    out->append(buf, static_cast<size_t>(n));
  }
  return true;
}

// The delta segment holds full-precision rows and is scanned exactly —
// tiny relative to the base, and exactness keeps pre-compaction float32
// results bit-identical to a from-scratch build.
IndexOptions DeltaOptions(const IndexOptions& base, Metric metric) {
  IndexOptions options;
  options.backend = IndexBackend::kFlat;
  options.storage = Storage::kFloat32;
  options.metric = metric;
  options.hnsw = base.hnsw;
  return options;
}

// CheckVectors' bound on a column's squared norm (see shard.h).
constexpr double kMaxSquaredNorm =
    static_cast<double>(std::numeric_limits<float>::max()) / 8;

}  // namespace

Status CheckVectors(const std::vector<std::vector<float>>& columns,
                    size_t dim) {
  for (size_t c = 0; c < columns.size(); ++c) {
    const std::vector<float>& column = columns[c];
    if (column.size() != dim) {
      return Status::InvalidArgument(
          "column " + std::to_string(c) + " has dim " +
          std::to_string(column.size()) + ", index dim is " +
          std::to_string(dim));
    }
    double norm_sq = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      const float x = column[i];
      if (!std::isfinite(x)) {
        const char* what = std::isnan(x) ? "nan" : x > 0 ? "+inf" : "-inf";
        return Status::InvalidArgument("column " + std::to_string(c) +
                                       " component " + std::to_string(i) +
                                       " is " + what);
      }
      norm_sq += static_cast<double>(x) * x;
    }
    if (norm_sq > kMaxSquaredNorm) {
      char what[96];
      std::snprintf(what, sizeof(what),
                    " has squared norm %.3g, above the bound %.3g", norm_sq,
                    kMaxSquaredNorm);
      return Status::InvalidArgument("column " + std::to_string(c) + what);
    }
  }
  return Status::OK();
}

LakeIndex::LakeIndex(size_t dim, const IndexOptions& options)
    : dim_(dim), index_(dim, options) {}

void LakeIndex::MoveFieldsFrom(LakeIndex&& other) {
  dim_ = other.dim_;
  table_ids_ = std::move(other.table_ids_);
  column_counts_ = std::move(other.column_counts_);
  index_ = std::move(other.index_);
  sealed_ = other.sealed_;
  base_tables_ = other.base_tables_;
  delta_ = std::move(other.delta_);
  dead_ = std::move(other.dead_);
  dead_tables_ = other.dead_tables_;
  dead_base_columns_ = other.dead_base_columns_;
  dead_delta_columns_ = other.dead_delta_columns_;
  handles_by_id_ = std::move(other.handles_by_id_);
  compacted_ = std::move(other.compacted_);
}

// Locks are not movable and a move must not overlap any other operation on
// either operand, so the new index simply re-arms a fresh one.
LakeIndex::LakeIndex(LakeIndex&& other) noexcept
    : dim_(other.dim_), index_(other.dim_) {
  MoveFieldsFrom(std::move(other));
}

LakeIndex& LakeIndex::operator=(LakeIndex&& other) noexcept {
  if (this != &other) MoveFieldsFrom(std::move(other));
  return *this;
}

size_t LakeIndex::RegisterLocked(const std::string& table_id,
                                 size_t num_columns) {
  const size_t handle = table_ids_.size();
  table_ids_.push_back(table_id);
  column_counts_.push_back(num_columns);
  dead_.push_back(0);
  handles_by_id_[table_id].push_back(handle);
  if (!sealed_) base_tables_ = handle + 1;
  return handle;
}

std::vector<std::vector<float>> LakeIndex::ColumnsLocked(
    size_t handle, size_t first_row) const {
  const ColumnEmbeddingIndex& segment = SegmentLocked(handle);
  std::vector<std::vector<float>> columns(column_counts_[handle]);
  for (size_t c = 0; c < columns.size(); ++c) {
    const float* row = segment.Row(first_row + c);
    columns[c].assign(row, row + dim_);
  }
  return columns;
}

size_t LakeIndex::AddTable(const std::string& table_id,
                           const std::vector<std::vector<float>>& column_embeddings) {
  const Status valid = CheckVectors(column_embeddings, dim_);
  TSFM_CHECK(valid.ok()) << "table \"" << table_id << "\": " << valid.message();
  WriterMutexLock lock(&mu_);
  const size_t handle = RegisterLocked(table_id, column_embeddings.size());
  if (handle < base_tables_) {
    index_.AddTable(handle, column_embeddings);
  } else {
    if (delta_ == nullptr) {
      delta_ = std::make_unique<ColumnEmbeddingIndex>(
          dim_, DeltaOptions(index_.options(), index_.options().metric));
    }
    delta_->AddTable(handle, column_embeddings);
  }
  return handle;
}

Status LakeIndex::RemoveTable(const std::string& table_id) {
  WriterMutexLock lock(&mu_);
  auto it = handles_by_id_.find(table_id);
  if (it != handles_by_id_.end()) {
    // Newest live handle wins; already-dead trailing handles are pruned so
    // repeated removes of a duplicated id stay O(removes).
    while (!it->second.empty() && dead_[it->second.back()] != 0) {
      it->second.pop_back();
    }
    if (!it->second.empty()) {
      const size_t handle = it->second.back();
      it->second.pop_back();
      dead_[handle] = 1;
      ++dead_tables_;
      const size_t cols = column_counts_[handle];
      if (handle < base_tables_) {
        dead_base_columns_ += cols;
      } else {
        dead_delta_columns_ += cols;
      }
      return Status::OK();
    }
  }
  return Status::NotFound("no live table with id \"" + table_id + "\"");
}

void LakeIndex::Seal() {
  WriterMutexLock lock(&mu_);
  sealed_ = true;
}

Result<std::vector<size_t>> LakeIndex::PrepareCompaction() {
  std::vector<size_t> remap;
  std::unique_ptr<LakeIndex> image;
  {
    // The coordinator excludes mutations until the commit, so the state
    // read here is what the commit replaces; the shared lock keeps queries
    // flowing during the rebuild.
    ReaderMutexLock lock(&mu_);
    remap.resize(table_ids_.size(), SIZE_MAX);
    if (!ChurnedLocked()) {
      for (size_t handle = 0; handle < remap.size(); ++handle) {
        remap[handle] = handle;
      }
    } else {
      image = std::make_unique<LakeIndex>(dim_, index_.options());
      for (size_t handle = 0, row = 0; handle < table_ids_.size(); ++handle) {
        if (handle == base_tables_) row = 0;  // delta rows restart at 0
        const size_t first_row = row;
        row += column_counts_[handle];
        if (dead_[handle] != 0) continue;
        // Survivors keep their relative insertion order, so re-densified
        // handles tie-break Fig 6 ranks exactly like a from-scratch build.
        remap[handle] = image->AddTable(table_ids_[handle],
                                        ColumnsLocked(handle, first_row));
      }
    }
  }
  WriterMutexLock lock(&mu_);
  compacted_ = std::move(image);
  return remap;
}

Status LakeIndex::CommitCompaction() {
  WriterMutexLock lock(&mu_);
  if (compacted_ != nullptr) {
    std::unique_ptr<LakeIndex> image = std::move(compacted_);
    MoveFieldsFrom(std::move(*image));
  }
  // A compacted lake serves live churn: later adds go to a delta segment.
  sealed_ = true;
  return Status::OK();
}

Result<std::vector<std::string>> LakeIndex::TableIds() const {
  ReaderMutexLock lock(&mu_);
  return table_ids_;
}

ShardCounts LakeIndex::Counts() const {
  ReaderMutexLock lock(&mu_);
  ShardCounts counts;
  counts.tables = table_ids_.size();
  counts.live_tables = table_ids_.size() - dead_tables_;
  counts.columns =
      index_.num_columns() + (delta_ != nullptr ? delta_->num_columns() : 0);
  counts.pending_delta_tables = table_ids_.size() - base_tables_;
  counts.pending_tombstones = dead_tables_;
  return counts;
}

void LakeIndex::FilterDeadLocked(ColumnHits* hits, size_t m) const {
  // Open-coded remove_if: a predicate lambda would read dead_ from a
  // function the thread-safety analysis treats as unlocked.
  size_t kept = 0;
  for (size_t i = 0; i < hits->size(); ++i) {
    if (dead_[(*hits)[i].table_id] != 0) continue;
    if (kept != i) (*hits)[kept] = std::move((*hits)[i]);
    ++kept;
  }
  hits->resize(std::min(kept, m));
}

Result<std::vector<ColumnHits>> LakeIndex::SearchColumnsBatch(
    const std::vector<std::vector<float>>& queries, size_t m,
    ThreadPool* pool) const {
  ReaderMutexLock lock(&mu_);
  if (!ChurnedLocked()) return index_.SearchColumnsBatch(queries, m, pool);
  // Over-fetch by the tombstoned-column count: at most that many of the
  // top slots can be dead, so filtering still leaves m live hits whenever
  // m live columns exist (exact for flat scans; HNSW is approximate
  // regardless, and the budget keeps its candidate frontier honest). The
  // sum saturates: a huge m must not wrap to a small fetch.
  auto over_fetch = [m](size_t dead) {
    return m > SIZE_MAX - dead ? SIZE_MAX : m + dead;
  };
  auto base =
      index_.SearchColumnsBatch(queries, over_fetch(dead_base_columns_), pool);
  std::vector<ColumnHits> delta;
  if (delta_ != nullptr) {
    delta = delta_->SearchColumnsBatch(queries,
                                       over_fetch(dead_delta_columns_), pool);
  }
  // Base handles precede delta handles, and both lists are sorted by
  // (distance, table, column), so the merge equals one sorted scan over
  // all live columns — bit-identical to an unchurned flat index holding
  // the same live tables under the same handles.
  std::vector<ColumnHits> merged(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<ColumnHits> lists;
    lists.push_back(std::move(base[q]));
    FilterDeadLocked(&lists.back(), m);
    if (!delta.empty()) {
      lists.push_back(std::move(delta[q]));
      FilterDeadLocked(&lists.back(), m);
    }
    merged[q] = TableRanker::MergeColumnHits(lists, m);
  }
  return merged;
}

Status LakeIndex::Save(const std::string& path) const {
  ReaderMutexLock lock(&mu_);
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const IndexOptions& opt = index_.options();
  WritePod(out, kMagicV2);
  WritePod(out, kFormatVersion);
  WritePod(out, static_cast<uint32_t>(opt.backend));
  WritePod(out, static_cast<uint32_t>(opt.metric));
  WritePod(out, static_cast<uint32_t>(opt.storage));
  WritePod(out, static_cast<uint64_t>(opt.hnsw.m));
  WritePod(out, static_cast<uint64_t>(opt.hnsw.ef_construction));
  WritePod(out, static_cast<uint64_t>(opt.hnsw.ef_search));
  WritePod(out, opt.hnsw.seed);
  WritePod(out, static_cast<uint64_t>(dim_));
  if (opt.storage == Storage::kSq8) {
    // Persist the live calibration (training it now if no search has yet),
    // so Load re-arms the index to encode exactly as this one does — even
    // for rows that were added after the codec was trained. Delta rows are
    // float on both sides, so the calibration describes the base only.
    const Sq8Codec* codec = index_.sq8_codec();
    TSFM_CHECK(codec != nullptr);
    if (Status s = codec->Save(out); !s.ok()) return s;
  }
  // Churn section: how many leading table records belong to the base
  // segment, then the tombstoned handles (an unchurned lake's base holds
  // every record and the list is empty). Placed before the records so
  // Load can replay base and delta adds into the right segments.
  WritePod(out, static_cast<uint64_t>(base_tables_));
  WritePod(out, static_cast<uint64_t>(dead_tables_));
  for (size_t handle = 0; handle < dead_.size(); ++handle) {
    if (dead_[handle] != 0) WritePod(out, static_cast<uint64_t>(handle));
  }
  WritePod(out, static_cast<uint64_t>(table_ids_.size()));
  for (size_t t = 0, row = 0; t < table_ids_.size(); ++t) {
    if (t == base_tables_) row = 0;  // delta rows restart at 0
    const ColumnEmbeddingIndex& segment = SegmentLocked(t);
    WritePod(out, static_cast<uint64_t>(table_ids_[t].size()));
    out.write(table_ids_[t].data(),
              static_cast<std::streamsize>(table_ids_[t].size()));
    WritePod(out, static_cast<uint64_t>(column_counts_[t]));
    for (size_t c = 0; c < column_counts_[t]; ++c, ++row) {
      out.write(reinterpret_cast<const char*>(segment.Row(row)),
                static_cast<std::streamsize>(dim_ * sizeof(float)));
    }
  }
  if (opt.backend == IndexBackend::kHnsw) {
    if (Status s = index_.SaveGraph(out); !s.ok()) return s;
  }
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Result<LakeIndex> LakeIndex::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  uint32_t magic = 0;
  if (!ReadPod(in, &magic)) return Status::IoError("truncated lake index " + path);

  IndexOptions options;  // legacy files predate backends: flat / cosine
  uint32_t version = 0;
  if (magic == kMagicV2) {
    uint32_t backend = 0, metric = 0, storage = 0;
    uint64_t m = 0, ef_construction = 0, ef_search = 0, seed = 0;
    if (!ReadPod(in, &version) || !ReadPod(in, &backend) ||
        !ReadPod(in, &metric)) {
      return Status::IoError("truncated lake-index header in " + path);
    }
    if (version > kFormatVersion) {
      return Status::ParseError("lake index " + path +
                                " written by a newer format version");
    }
    if (version >= 3 && !ReadPod(in, &storage)) {
      return Status::IoError("truncated lake-index header in " + path);
    }
    if (!ReadPod(in, &m) || !ReadPod(in, &ef_construction) ||
        !ReadPod(in, &ef_search) || !ReadPod(in, &seed)) {
      return Status::IoError("truncated lake-index header in " + path);
    }
    if (backend > static_cast<uint32_t>(IndexBackend::kHnsw) ||
        metric > static_cast<uint32_t>(Metric::kL2) ||
        storage > static_cast<uint32_t>(Storage::kSq8)) {
      return Status::ParseError("bad lake-index backend/metric in " + path);
    }
    options.backend = static_cast<IndexBackend>(backend);
    options.metric = static_cast<Metric>(metric);
    options.storage = static_cast<Storage>(storage);
    options.hnsw.m = static_cast<size_t>(m);
    options.hnsw.ef_construction = static_cast<size_t>(ef_construction);
    options.hnsw.ef_search = static_cast<size_t>(ef_search);
    options.hnsw.seed = seed;
  } else if (magic != kMagicV1) {
    return Status::ParseError("bad lake-index magic in " + path);
  }

  uint64_t dim = 0;
  if (!ReadPod(in, &dim)) {
    return Status::IoError("truncated lake index " + path);
  }
  if (dim == 0 || dim > (1u << 20)) return Status::ParseError("implausible dim");

  LakeIndex index(dim, options);
  if (version >= 3 && options.storage == Storage::kSq8) {
    auto codec = Sq8Codec::Load(in, dim);
    if (!codec.ok()) return codec.status();
    // Seed before the AddTable replay: every replayed (and future) row
    // encodes through the calibration the saved index used. `index` is
    // local and unshared, but its fields are lock-guarded, so the direct
    // write takes the (uncontended) lock to keep the checker honest.
    WriterMutexLock lock(&index.mu_);
    index.index_.SeedSq8Codec(std::move(codec).value());
  }

  uint64_t base_tables = UINT64_MAX;  // v4 seals mid-replay at this count
  std::vector<uint64_t> tombstones;
  if (version >= 4) {
    uint64_t num_dead = 0;
    if (!ReadPod(in, &base_tables) || !ReadPod(in, &num_dead)) {
      return Status::IoError("truncated lake-index churn section in " + path);
    }
    tombstones.reserve(std::min<uint64_t>(num_dead, 1024));
    for (uint64_t i = 0; i < num_dead; ++i) {
      uint64_t handle = 0;
      if (!ReadPod(in, &handle)) {
        return Status::IoError("truncated lake-index churn section in " + path);
      }
      tombstones.push_back(handle);
    }
  }

  uint64_t num_tables = 0;
  if (!ReadPod(in, &num_tables)) {
    return Status::IoError("truncated lake index " + path);
  }
  if (base_tables != UINT64_MAX && base_tables > num_tables) {
    return Status::ParseError("lake index " + path +
                              " claims more base tables than tables");
  }
  // A v5 HNSW base is linked by the graph stored after the records: its
  // rows are collected here as the graph stores them, not re-inserted.
  const bool stored_graph =
      version >= 5 && options.backend == IndexBackend::kHnsw;
  std::vector<float> graph_rows;
  for (uint64_t t = 0; t < num_tables; ++t) {
    if (t == base_tables) index.Seal();
    // Ids and columns grow as their bytes arrive: a corrupt count ends in
    // a truncation Status at end of file, never an allocation of its size.
    uint64_t id_len = 0, num_cols = 0;
    std::string id;
    if (!ReadPod(in, &id_len) || !ReadBytes(in, id_len, &id) ||
        !ReadPod(in, &num_cols)) {
      return Status::IoError("truncated lake index " + path);
    }
    std::vector<std::vector<float>> cols;
    for (uint64_t c = 0; c < num_cols; ++c) {
      std::vector<float> col(dim);
      if (!in.read(reinterpret_cast<char*>(col.data()),
                   static_cast<std::streamsize>(dim * sizeof(float)))) {
        return Status::IoError("truncated lake index " + path);
      }
      cols.push_back(std::move(col));
    }
    if (Status s = CheckVectors(cols, dim); !s.ok()) {
      return Status::ParseError("lake index " + path + " table \"" + id +
                                "\": " + s.message());
    }
    if (stored_graph && t < base_tables) {
      for (const auto& col : cols) {
        graph_rows.insert(graph_rows.end(), col.begin(), col.end());
      }
      WriterMutexLock lock(&index.mu_);
      index.RegisterLocked(id, cols.size());
    } else {
      index.AddTable(id, cols);
    }
  }
  if (stored_graph) {
    WriterMutexLock lock(&index.mu_);
    const std::span<const size_t> base_columns(index.column_counts_.data(),
                                               index.base_tables_);
    if (Status s = index.index_.LoadGraph(std::move(graph_rows), base_columns,
                                          in);
        !s.ok()) {
      return Status(s.code(), "lake index " + path + ": " + s.message());
    }
  }
  // Replay the tombstones directly: RemoveTable's newest-live-first rule
  // must not reshuffle which of several same-id handles died. As above,
  // the lock is uncontended; it exists for the checker.
  {
    WriterMutexLock lock(&index.mu_);
    for (uint64_t handle : tombstones) {
      if (handle >= index.table_ids_.size() || index.dead_[handle] != 0) {
        return Status::ParseError("lake index " + path +
                                  " has an invalid or duplicate tombstone");
      }
      index.dead_[handle] = 1;
      ++index.dead_tables_;
      const size_t cols = index.column_counts_[handle];
      if (handle < index.base_tables_) {
        index.dead_base_columns_ += cols;
      } else {
        index.dead_delta_columns_ += cols;
      }
    }
  }
  // A loaded lake is a serving artifact: later AddTable calls are live
  // churn and belong in the delta segment.
  index.Seal();
  return index;
}

}  // namespace tsfm::search
