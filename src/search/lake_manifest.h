// The "LAKS" manifest: the metadata half of a sharded lake index on disk.
//
// A sharded index is one manifest plus one self-contained "LAK2" LakeIndex
// file per shard. The manifest records everything a reader needs to know
// *without* opening the shard files: backend, metric, dim, the per-shard
// file names, and the global handle order (one (shard, local) record per
// table in AddTable insertion order, so handles survive a round trip).
//
// Split out of ShardedLakeIndex because two deployments read it:
//   - ShardedLakeIndex::Load opens the manifest and then loads every shard
//     file into one process;
//   - server::DistributedLakeIndex opens only the manifest and leaves each
//     shard file to its own lake_shard_worker process, rebuilding the
//     global handle space from the locator plus the workers' table lists.
#ifndef TSFM_SEARCH_LAKE_MANIFEST_H_
#define TSFM_SEARCH_LAKE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "search/vector_index.h"
#include "util/status.h"

namespace tsfm::search {

/// First four bytes of a manifest file ("LAKS" little-endian); anything
/// else is treated as a legacy single-file index by ShardedLakeIndex::Load.
inline constexpr uint32_t kLakeManifestMagic = 0x4c414b53;

/// \brief The manifest layout this build writes; it reads every older one.
///
/// Version 1: backend/metric/dim/shard files/locator. Version 2 adds a
/// storage word after the metric. Version 3 adds a live-table count after
/// the dim (the locator's handle count exceeds it while some shard carries
/// tombstones). SaveLakeManifest always writes version 3.
inline constexpr uint32_t kLakeManifestVersion = 3;

/// Upper bound on the shard count a manifest may claim.
inline constexpr uint64_t kMaxLakeShards = 1u << 16;

/// \brief Parsed contents of a "LAKS" manifest.
///
/// `shard_files[s]` is the file name of shard s, relative to the manifest's
/// directory. `locator[h]` is table handle h's (shard, local-handle) pair,
/// in global insertion order — the record that makes sharded and
/// distributed deployments rank with identical tie-breaking.
struct LakeManifest {
  IndexBackend backend = IndexBackend::kFlat;
  Metric metric = Metric::kCosine;
  Storage storage = Storage::kFloat32;  ///< storage of every shard file
  uint64_t dim = 0;
  /// Tables queries can return. LoadLakeManifest sets it to num_tables()
  /// for the pre-v3 files that do not record it.
  uint64_t live_tables = 0;
  std::vector<std::string> shard_files;
  std::vector<std::pair<uint32_t, uint64_t>> locator;

  size_t num_shards() const { return shard_files.size(); }
  size_t num_tables() const { return locator.size(); }
};

/// The conventional shard file name: "<manifest-basename>.shard-<s>".
std::string LakeShardFileName(const std::string& manifest_basename,
                              size_t shard);

/// True when `path` starts with the manifest magic (a readable file that is
/// too short or starts with anything else is false, not an error).
bool IsLakeManifestFile(const std::string& path);

/// \brief Writes `manifest` to `path`.
///
/// Validation mirrors LoadLakeManifest: an inconsistent manifest (locator
/// routing to a shard with no file entry, zero dim) is an error here rather
/// than a file no reader will accept.
Status SaveLakeManifest(const LakeManifest& manifest, const std::string& path);

/// \brief Parses a manifest written by SaveLakeManifest.
///
/// A truncated file, bad magic, newer version, implausible shape (zero or
/// absurd dim/shard counts), or a locator record routing to a nonexistent
/// shard yields an error Status, never a crash.
Result<LakeManifest> LoadLakeManifest(const std::string& path);

}  // namespace tsfm::search

#endif  // TSFM_SEARCH_LAKE_MANIFEST_H_
