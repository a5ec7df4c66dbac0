#include "search/sharded_lake_index.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <optional>

#include "search/table_ranker.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tsfm::search {

namespace {

// Mirror ColumnEmbeddingIndex's normalization: the HNSW backend stores
// floats whatever the storage knob says, and the manifest must describe
// what the shard files actually contain.
IndexOptions NormalizeShardStorage(IndexOptions options) {
  if (options.backend == IndexBackend::kHnsw) {
    options.storage = Storage::kFloat32;
  }
  return options;
}

// Flattens every query's columns into one batch; query q owns columns
// [offset[q], offset[q + 1]).
std::vector<std::vector<float>> Flatten(
    const std::vector<std::vector<std::vector<float>>>& queries,
    std::vector<size_t>* offset) {
  offset->assign(1, 0);
  for (const auto& query : queries) offset->push_back(offset->back() + query.size());
  std::vector<std::vector<float>> flat;
  flat.reserve(offset->back());
  for (const auto& query : queries) {
    flat.insert(flat.end(), query.begin(), query.end());
  }
  return flat;
}

// Maps ranked table handles to their string ids, truncated to `k`.
std::vector<std::string> RankedTableIds(const std::vector<std::string>& table_ids,
                                        const std::vector<size_t>& handles,
                                        size_t k) {
  std::vector<std::string> out;
  out.reserve(std::min(k, handles.size()));
  for (size_t handle : handles) {
    if (out.size() >= k) break;
    out.push_back(table_ids[handle]);
  }
  return out;
}

// In-process shards never fail, so an error here is a bug, not a
// condition for the caller to handle.
template <typename T>
T Must(Result<T> result) {
  TSFM_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

}  // namespace

LakeCoordinator::LakeCoordinator(size_t dim, const IndexOptions& options,
                                 std::vector<std::unique_ptr<Shard>> shards)
    : dim_(dim),
      options_(NormalizeShardStorage(options)),
      shards_(std::move(shards)) {
  to_global_.resize(shards_.size());
}

LakeCoordinator::~LakeCoordinator() = default;

void LakeCoordinator::MoveFieldsFrom(LakeCoordinator&& other) {
  dim_ = other.dim_;
  options_ = other.options_;
  shards_ = std::move(other.shards_);
  global_ids_ = std::move(other.global_ids_);
  locator_ = std::move(other.locator_);
  to_global_ = std::move(other.to_global_);
  compactions_ = other.compactions_;
}

LakeCoordinator::LakeCoordinator(LakeCoordinator&& other) noexcept
    : dim_(other.dim_) {
  MoveFieldsFrom(std::move(other));
}

LakeCoordinator& LakeCoordinator::operator=(LakeCoordinator&& other) noexcept {
  if (this != &other) MoveFieldsFrom(std::move(other));
  return *this;
}

template <typename Fn>
void LakeCoordinator::ForEachShard(ThreadPool* pool, Fn&& fn) const {
  if (pool != nullptr && shards_.size() > 1) {
    ParallelFor(pool, 0, shards_.size(), fn);
  } else {
    for (size_t s = 0; s < shards_.size(); ++s) fn(s);
  }
}

size_t LakeCoordinator::shard_of(const std::string& table_id) const {
  return StableShard(table_id, shards_.size());
}

// ------------------------------------------------------------------ queries

Result<std::vector<ColumnHits>> LakeCoordinator::SearchColumnHitsBatchLocked(
    const std::vector<std::vector<float>>& queries, size_t m,
    ThreadPool* pool) const {
  if (Status status = CheckVectors(queries, dim_); !status.ok()) return status;
  // The search lambda runs on pool threads, invisible to this frame's
  // shared lock; bind the guarded map to an alias under the lock and
  // capture that (see the concurrency contract in docs/architecture.md).
  const std::vector<std::vector<size_t>>& to_global = to_global_;
  std::vector<Result<std::vector<ColumnHits>>> per_shard(
      shards_.size(), Status::Internal("shard not queried"));
  // ParallelFor is nest-safe (util/thread_pool.h), so the shard fan-out and
  // each shard's own query-chunk fan-out share one pool.
  ForEachShard(pool, [&](size_t s) {
    Result<std::vector<ColumnHits>> lists =
        shards_[s]->SearchColumnsBatch(queries, m, pool);
    if (lists.ok()) {
      // Local handles are assigned in insertion order, so the remap is
      // monotone and each list stays sorted by (distance, table, column).
      for (ColumnHits& hits : lists.value()) {
        for (auto& hit : hits) hit.table_id = to_global[s][hit.table_id];
      }
    }
    per_shard[s] = std::move(lists);
  });
  for (const auto& lists : per_shard) {
    if (!lists.ok()) return lists.status();
  }
  std::vector<ColumnHits> merged(queries.size());
  std::vector<ColumnHits> heads(shards_.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      heads[s] = std::move(per_shard[s].value()[q]);
    }
    merged[q] = TableRanker::MergeColumnHits(heads, m);
  }
  return merged;
}

Result<std::vector<ColumnHits>> LakeCoordinator::SearchColumnHitsBatch(
    const std::vector<std::vector<float>>& queries, size_t m,
    ThreadPool* pool) const {
  ReaderMutexLock lock(&mu_);
  return SearchColumnHitsBatchLocked(queries, m, pool);
}

Result<std::vector<std::vector<size_t>>> LakeCoordinator::Rank(
    const std::vector<std::vector<float>>& columns,
    const std::vector<size_t>& offset, size_t k,
    const std::vector<size_t>& excludes, ThreadPool* pool,
    std::vector<std::vector<std::string>>* ids) const {
  // One epoch from scatter to id gather: a concurrent compaction swaps the
  // maps under the exclusive side of this lock.
  ReaderMutexLock lock(&mu_);
  // Fig 6: each query column over-retrieves k * 3 candidate columns,
  // saturating rather than wrapping for a huge k.
  const size_t m = k > SIZE_MAX / 3 ? SIZE_MAX : k * 3;
  auto hits = SearchColumnHitsBatchLocked(columns, m, pool);
  if (!hits.ok()) return hits.status();
  const size_t num_queries = offset.size() - 1;
  std::vector<std::vector<size_t>> ranked(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    const size_t exclude = q < excludes.size() ? excludes[q] : SIZE_MAX;
    const std::vector<ColumnHits> per_column(
        std::make_move_iterator(hits.value().begin() + offset[q]),
        std::make_move_iterator(hits.value().begin() + offset[q + 1]));
    ranked[q] = TableRanker::RankFromColumnHits(per_column, exclude);
  }
  if (ids != nullptr) {
    ids->resize(num_queries);
    for (size_t q = 0; q < num_queries; ++q) {
      (*ids)[q] = RankedTableIds(global_ids_, ranked[q], k);
    }
  }
  return ranked;
}

Result<std::vector<std::vector<std::string>>>
LakeCoordinator::QueryJoinableBatch(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    ThreadPool* pool) const {
  // Query q is the one-column query [q, q + 1).
  std::vector<size_t> offset(query_columns.size() + 1);
  std::iota(offset.begin(), offset.end(), 0);
  std::vector<std::vector<std::string>> ids;
  auto ranked = Rank(query_columns, offset, k, /*excludes=*/{}, pool, &ids);
  if (!ranked.ok()) return ranked.status();
  return ids;
}

Result<std::vector<std::vector<std::string>>>
LakeCoordinator::QueryUnionableBatch(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    ThreadPool* pool) const {
  std::vector<size_t> offset;
  const auto flat = Flatten(queries, &offset);
  std::vector<std::vector<std::string>> ids;
  auto ranked = Rank(flat, offset, k, /*excludes=*/{}, pool, &ids);
  if (!ranked.ok()) return ranked.status();
  return ids;
}

Result<std::vector<std::string>> LakeCoordinator::QueryJoinable(
    const std::vector<float>& query_column, size_t k, ThreadPool* pool) const {
  auto batch = QueryJoinableBatch({query_column}, k, pool);
  if (!batch.ok()) return batch.status();
  return std::move(batch.value()[0]);
}

Result<std::vector<std::string>> LakeCoordinator::QueryUnionable(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    ThreadPool* pool) const {
  auto batch = QueryUnionableBatch({query_columns}, k, pool);
  if (!batch.ok()) return batch.status();
  return std::move(batch.value()[0]);
}

// ---------------------------------------------------------------- mutations

Status LakeCoordinator::MutationGate() const {
  for (const auto& shard : shards_) {
    if (Status status = shard->Writable(); !status.ok()) return status;
  }
  return Status::OK();
}

Status LakeCoordinator::AddTable(
    const std::string& table_id,
    const std::vector<std::vector<float>>& columns, size_t* handle) {
  // Before routing: no shard sees a bad table, so no SQ8 codec trains
  // over it.
  if (Status status = CheckVectors(columns, dim_); !status.ok()) {
    return Status::InvalidArgument("table \"" + table_id +
                                   "\": " + status.message());
  }
  MutexLock writer(&writer_mu_);
  if (Status status = MutationGate(); !status.ok()) return status;
  const size_t s = shard_of(table_id);
  // The shard add and the map append publish together under one exclusive
  // section, so an in-flight query (which pins the maps with a shared lock
  // for its whole scatter) never sees a shard hit whose local handle lacks
  // a global one.
  WriterMutexLock lock(&mu_);
  Result<size_t> local = shards_[s]->Add(table_id, columns);
  if (!local.ok()) return local.status();
  TSFM_CHECK_EQ(to_global_[s].size(), local.value());
  if (handle != nullptr) *handle = global_ids_.size();
  to_global_[s].push_back(global_ids_.size());
  locator_.emplace_back(s, local.value());
  global_ids_.push_back(table_id);
  return Status::OK();
}

Status LakeCoordinator::RemoveTable(const std::string& table_id) {
  MutexLock writer(&writer_mu_);
  if (Status status = MutationGate(); !status.ok()) return status;
  // A tombstone changes no global maps (the handle stays allocated until
  // the next compaction) and its shard applies it atomically, so queries
  // keep running: each sees the table either live or gone.
  return shards_[shard_of(table_id)]->RemoveTable(table_id);
}

Status LakeCoordinator::Compact(ThreadPool* pool) {
  MutexLock writer(&writer_mu_);
  if (Status status = MutationGate(); !status.ok()) return status;

  // Prepare: the expensive rebuilds run while queries keep reading the
  // current epoch; writer_mu_ keeps every shard as prepared until commit.
  std::vector<Result<std::vector<size_t>>> remaps(
      shards_.size(), Status::Internal("shard not prepared"));
  ForEachShard(pool,
               [&](size_t s) { remaps[s] = shards_[s]->PrepareCompaction(); });
  for (const auto& remap : remaps) {
    if (!remap.ok()) return remap.status();
  }

  // Commit: every shard's new handle space and the re-densified maps
  // change in one exclusive section, so no query can pair one epoch's hits
  // with the other epoch's maps.
  WriterMutexLock lock(&mu_);
  std::vector<Status> committed(shards_.size());
  ForEachShard(pool,
               [&](size_t s) { committed[s] = shards_[s]->CommitCompaction(); });
  std::vector<std::string> new_ids;
  std::vector<std::pair<size_t, size_t>> new_locator;
  std::vector<std::vector<size_t>> new_to_global(shards_.size());
  new_ids.reserve(global_ids_.size());
  new_locator.reserve(global_ids_.size());
  for (size_t h = 0; h < global_ids_.size(); ++h) {
    const auto [s, local] = locator_[h];
    // A shard whose commit failed keeps its handle space, tombstones
    // included (the shard still filters them).
    const size_t new_local = committed[s].ok() ? remaps[s].value()[local] : local;
    if (new_local == SIZE_MAX) continue;  // tombstoned; handle retired
    // Survivors keep their relative order, so the new maps stay dense per
    // shard and global order matches a from-scratch build.
    TSFM_CHECK_EQ(new_to_global[s].size(), new_local);
    new_to_global[s].push_back(new_ids.size());
    new_locator.emplace_back(s, new_local);
    new_ids.push_back(std::move(global_ids_[h]));
  }
  global_ids_ = std::move(new_ids);
  locator_ = std::move(new_locator);
  to_global_ = std::move(new_to_global);
  for (const Status& status : committed) {
    if (!status.ok()) return status;
  }
  ++compactions_;
  return Status::OK();
}

// -------------------------------------------------------------------- state

std::vector<std::string> LakeCoordinator::TableIds() const {
  ReaderMutexLock lock(&mu_);
  return global_ids_;
}

std::string LakeCoordinator::table_id(size_t handle) const {
  ReaderMutexLock lock(&mu_);
  return global_ids_[handle];
}

size_t LakeCoordinator::num_tables() const {
  ReaderMutexLock lock(&mu_);
  return global_ids_.size();
}

ShardCounts LakeCoordinator::SumCounts() const {
  ShardCounts total;
  for (const auto& shard : shards_) {
    const ShardCounts counts = shard->Counts();
    total.tables += counts.tables;
    total.live_tables += counts.live_tables;
    total.columns += counts.columns;
    total.pending_delta_tables += counts.pending_delta_tables;
    total.pending_tombstones += counts.pending_tombstones;
  }
  return total;
}

LakeChurnCounters LakeCoordinator::Churn() const {
  const ShardCounts counts = SumCounts();
  LakeChurnCounters churn;
  churn.pending_delta_tables = counts.pending_delta_tables;
  churn.pending_tombstones = counts.pending_tombstones;
  ReaderMutexLock lock(&mu_);
  churn.compactions = compactions_;
  return churn;
}

Status LakeCoordinator::IndexFromLocator(const LakeManifest& manifest,
                                         const std::string& path) {
  std::vector<std::vector<std::string>> ids(shards_.size());
  size_t shard_tables = 0, live_tables = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Result<std::vector<std::string>> tables = shards_[s]->TableIds();
    if (!tables.ok()) return tables.status();
    ids[s] = std::move(tables).value();
    shard_tables += ids[s].size();
    live_tables += shards_[s]->Counts().live_tables;
  }
  // With the duplicate check below, equal counts mean every shard table is
  // claimed by exactly one locator record.
  if (shard_tables != manifest.num_tables()) {
    return Status::ParseError("lake manifest " + path +
                              " table count disagrees with shard files");
  }
  // Churned manifests also pin the live count, catching a manifest paired
  // with shard files from a different compaction epoch.
  if (live_tables != manifest.live_tables) {
    return Status::ParseError("lake manifest " + path +
                              " live-table count disagrees with shard files");
  }
  // Not yet shared; the lock is uncontended and exists for the checker.
  WriterMutexLock lock(&mu_);
  for (size_t s = 0; s < shards_.size(); ++s) {
    to_global_[s].assign(ids[s].size(), SIZE_MAX);
  }
  global_ids_.reserve(shard_tables);
  locator_.reserve(shard_tables);
  // Handles in the original insertion order: this is what keeps Fig 6
  // tie-breaking identical across save/load and across deployments.
  for (const auto& [shard, local] : manifest.locator) {
    if (local >= to_global_[shard].size() ||
        to_global_[shard][local] != SIZE_MAX) {
      return Status::ParseError("lake manifest " + path +
                                " has an invalid or duplicate table record");
    }
    to_global_[shard][local] = global_ids_.size();
    global_ids_.push_back(std::move(ids[shard][local]));
    locator_.emplace_back(shard, local);
  }
  return Status::OK();
}

LakeManifest LakeCoordinator::ManifestLocked(
    const std::string& basename) const {
  LakeManifest manifest;
  manifest.backend = options_.backend;
  manifest.metric = options_.metric;
  manifest.storage = options_.storage;
  manifest.dim = dim_;
  manifest.live_tables = SumCounts().live_tables;
  for (size_t s = 0; s < shards_.size(); ++s) {
    manifest.shard_files.push_back(LakeShardFileName(basename, s));
  }
  // Global handle space: (shard, local) per handle in insertion order —
  // tombstoned handles included, matching the shard files' churn sections —
  // so handles assigned by AddTable stay valid across a save/load round
  // trip (until the next compaction re-densifies them).
  manifest.locator.reserve(locator_.size());
  for (const auto& [shard, local] : locator_) {
    manifest.locator.emplace_back(static_cast<uint32_t>(shard),
                                  static_cast<uint64_t>(local));
  }
  return manifest;
}

// --------------------------------------------------------- ShardedLakeIndex

namespace {

std::vector<std::unique_ptr<Shard>> MakeLakeShards(size_t dim,
                                                   size_t num_shards,
                                                   const IndexOptions& options) {
  std::vector<std::unique_ptr<Shard>> shards;
  for (size_t s = 0; s < std::max<size_t>(1, num_shards); ++s) {
    shards.push_back(std::make_unique<LakeIndex>(dim, options));
  }
  return shards;
}

}  // namespace

ShardedLakeIndex::ShardedLakeIndex(size_t dim, size_t num_shards,
                                   const IndexOptions& options)
    : LakeCoordinator(dim, options, MakeLakeShards(dim, num_shards, options)) {}

size_t ShardedLakeIndex::AddTable(
    const std::string& table_id,
    const std::vector<std::vector<float>>& column_embeddings) {
  size_t handle = 0;
  Status added = LakeCoordinator::AddTable(table_id, column_embeddings, &handle);
  TSFM_CHECK(added.ok()) << added.ToString();
  return handle;
}

void ShardedLakeIndex::Seal() {
  MutexLock writer(&writer_mu_);
  for (size_t s = 0; s < num_shards(); ++s) lake(s).Seal();
}

std::vector<std::string> ShardedLakeIndex::QueryUnionable(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    ThreadPool* pool) const {
  return Must(LakeCoordinator::QueryUnionable(query_columns, k, pool));
}

std::vector<std::string> ShardedLakeIndex::QueryJoinable(
    const std::vector<float>& query_column, size_t k, ThreadPool* pool) const {
  return Must(LakeCoordinator::QueryJoinable(query_column, k, pool));
}

std::vector<std::vector<std::string>> ShardedLakeIndex::QueryUnionableBatch(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    ThreadPool* pool) const {
  return Must(LakeCoordinator::QueryUnionableBatch(queries, k, pool));
}

std::vector<std::vector<std::string>> ShardedLakeIndex::QueryJoinableBatch(
    const std::vector<std::vector<float>>& query_columns, size_t k,
    ThreadPool* pool) const {
  return Must(LakeCoordinator::QueryJoinableBatch(query_columns, k, pool));
}

std::vector<ColumnHits> ShardedLakeIndex::SearchColumnHitsBatch(
    const std::vector<std::vector<float>>& queries, size_t m,
    ThreadPool* pool) const {
  return Must(LakeCoordinator::SearchColumnHitsBatch(queries, m, pool));
}

std::vector<std::vector<size_t>> ShardedLakeIndex::RankUnionableBatch(
    const std::vector<std::vector<std::vector<float>>>& queries, size_t k,
    const std::vector<size_t>& excludes, ThreadPool* pool) const {
  std::vector<size_t> offset;
  const auto flat = Flatten(queries, &offset);
  return Must(Rank(flat, offset, k, excludes, pool, /*ids=*/nullptr));
}

ShardedLakeIndex ShardedLakeIndex::FromSingle(LakeIndex&& shard) {
  // The trivial locator: the shard's local handle h is global handle h.
  LakeManifest manifest;
  manifest.live_tables = shard.num_live_tables();
  for (size_t h = 0; h < shard.num_tables(); ++h) manifest.locator.emplace_back(0, h);
  const size_t dim = shard.dim();
  const IndexOptions options = shard.options();
  std::vector<std::unique_ptr<Shard>> shards;
  shards.push_back(std::make_unique<LakeIndex>(std::move(shard)));
  ShardedLakeIndex index(dim, options, std::move(shards));
  Status indexed = index.IndexFromLocator(manifest, "of a single shard");
  TSFM_CHECK(indexed.ok()) << indexed.ToString();
  return index;
}

Status ShardedLakeIndex::Save(const std::string& path, ThreadPool* pool) const {
  namespace fs = std::filesystem;
  const fs::path manifest_path(path);
  const std::string basename = manifest_path.filename().string();
  const fs::path dir = manifest_path.parent_path();

  // Exclude mutations (writer_mu_) but not queries for the whole save, so
  // the manifest and the shard files describe one epoch.
  MutexLock writer(&writer_mu_);
  // Shard files first, in parallel: each one is an independent LakeIndex
  // ("LAK2") image, so a crash mid-save never leaves a manifest pointing at
  // files that were not yet written.
  std::vector<Status> statuses(num_shards());
  ForEachShard(pool, [&](size_t s) {
    statuses[s] = lake(s).Save((dir / LakeShardFileName(basename, s)).string());
  });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  ReaderMutexLock lock(&mu_);
  return SaveLakeManifest(ManifestLocked(basename), path);
}

Result<ShardedLakeIndex> ShardedLakeIndex::Load(const std::string& path,
                                                ThreadPool* pool) {
  namespace fs = std::filesystem;
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) return Status::IoError("cannot open " + path);
  }
  if (!IsLakeManifestFile(path)) {
    // Legacy single-file formats ("LAK2" / "LAKE"): wrap as one shard.
    auto single = LakeIndex::Load(path);
    if (!single.ok()) return single.status();
    return FromSingle(std::move(single).value());
  }

  Result<LakeManifest> parsed = LoadLakeManifest(path);
  if (!parsed.ok()) return parsed.status();
  const LakeManifest& manifest = parsed.value();
  const size_t num_shards = manifest.num_shards();
  const std::vector<std::string>& shard_files = manifest.shard_files;

  // Load the shard files in parallel; each is a self-contained LakeIndex.
  const fs::path dir = fs::path(path).parent_path();
  std::vector<std::optional<Result<LakeIndex>>> loaded(num_shards);
  auto load_shard = [&](size_t s) {
    loaded[s] = LakeIndex::Load((dir / shard_files[s]).string());
  };
  if (pool != nullptr && num_shards > 1) {
    ParallelFor(pool, 0, num_shards, load_shard);
  } else {
    for (size_t s = 0; s < num_shards; ++s) load_shard(s);
  }

  IndexOptions options;
  options.backend = manifest.backend;
  options.metric = manifest.metric;
  options.storage = manifest.storage;
  std::vector<std::unique_ptr<Shard>> shards;
  for (size_t s = 0; s < num_shards; ++s) {
    if (!loaded[s]->ok()) return loaded[s]->status();
    LakeIndex shard = std::move(*loaded[s]).value();
    const IndexOptions got = shard.options();
    if (shard.dim() != manifest.dim) {
      return Status::ParseError("shard " + shard_files[s] +
                                " dim disagrees with manifest " + path);
    }
    if (got.backend != options.backend || got.metric != options.metric) {
      return Status::ParseError("shard " + shard_files[s] +
                                " backend/metric disagrees with manifest " +
                                path);
    }
    if (got.storage != options.storage) {
      // A float shard merged into an sq8 lake (or vice versa) would rank
      // with distances from two different spaces; refuse loudly.
      return Status::ParseError(
          "shard " + shard_files[s] + " storage (" +
          (got.storage == Storage::kSq8 ? "sq8" : "float32") +
          ") disagrees with manifest " + path + " (" +
          (options.storage == Storage::kSq8 ? "sq8" : "float32") + ")");
    }
    // The shard files carry the HNSW knobs; mirror shard 0's so options()
    // reports what the shards actually use.
    if (s == 0) options.hnsw = got.hnsw;
    shards.push_back(std::make_unique<LakeIndex>(std::move(shard)));
  }
  ShardedLakeIndex index(static_cast<size_t>(manifest.dim), options,
                         std::move(shards));
  if (Status status = index.IndexFromLocator(manifest, path); !status.ok()) {
    return status;
  }
  return index;
}

}  // namespace tsfm::search
