#include "search/lake_manifest.h"

#include <algorithm>
#include <fstream>

#include "search/stream_io.h"

namespace tsfm::search {

using io::ReadPod;
using io::WritePod;

std::string LakeShardFileName(const std::string& manifest_basename,
                              size_t shard) {
  return manifest_basename + ".shard-" + std::to_string(shard);
}

bool IsLakeManifestFile(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) return false;
  uint32_t magic = 0;
  return ReadPod(probe, &magic) && magic == kLakeManifestMagic;
}

Status SaveLakeManifest(const LakeManifest& manifest, const std::string& path) {
  if (manifest.dim == 0) {
    return Status::InvalidArgument("lake manifest dim must be nonzero");
  }
  if (manifest.shard_files.empty() ||
      manifest.shard_files.size() > kMaxLakeShards) {
    return Status::InvalidArgument("lake manifest shard count out of range");
  }
  for (const auto& [shard, local] : manifest.locator) {
    if (shard >= manifest.shard_files.size()) {
      return Status::InvalidArgument(
          "lake manifest locator routes a table to a nonexistent shard");
    }
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  WritePod(out, kLakeManifestMagic);
  WritePod(out, kLakeManifestVersion);
  WritePod(out, static_cast<uint32_t>(manifest.backend));
  WritePod(out, static_cast<uint32_t>(manifest.metric));
  WritePod(out, static_cast<uint32_t>(manifest.storage));
  WritePod(out, manifest.dim);
  WritePod(out, manifest.live_tables);
  WritePod(out, static_cast<uint64_t>(manifest.shard_files.size()));
  for (const std::string& name : manifest.shard_files) {
    WritePod(out, static_cast<uint64_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  WritePod(out, static_cast<uint64_t>(manifest.locator.size()));
  for (const auto& [shard, local] : manifest.locator) {
    WritePod(out, shard);
    WritePod(out, local);
  }
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Result<LakeManifest> LoadLakeManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  uint32_t magic = 0, version = 0, backend = 0, metric = 0, storage = 0;
  uint64_t dim = 0, num_shards = 0;
  if (!ReadPod(in, &magic)) {
    return Status::IoError("truncated lake manifest " + path);
  }
  if (magic != kLakeManifestMagic) {
    return Status::ParseError(path + " is not a lake manifest");
  }
  if (!ReadPod(in, &version) || !ReadPod(in, &backend) ||
      !ReadPod(in, &metric)) {
    return Status::IoError("truncated lake manifest " + path);
  }
  if (version > kLakeManifestVersion) {
    return Status::ParseError("lake manifest " + path +
                              " written by a newer format version");
  }
  if (version >= 2 && !ReadPod(in, &storage)) {
    return Status::IoError("truncated lake manifest " + path);
  }
  if (!ReadPod(in, &dim)) {
    return Status::IoError("truncated lake manifest " + path);
  }
  uint64_t live_tables = 0;
  if (version >= 3 && !ReadPod(in, &live_tables)) {
    return Status::IoError("truncated lake manifest " + path);
  }
  if (!ReadPod(in, &num_shards)) {
    return Status::IoError("truncated lake manifest " + path);
  }
  if (backend > static_cast<uint32_t>(IndexBackend::kHnsw) ||
      metric > static_cast<uint32_t>(Metric::kL2) ||
      storage > static_cast<uint32_t>(Storage::kSq8)) {
    return Status::ParseError("bad lake-manifest backend/metric in " + path);
  }
  if (dim == 0 || dim > (1u << 20) || num_shards == 0 ||
      num_shards > kMaxLakeShards) {
    return Status::ParseError("implausible lake manifest " + path);
  }

  LakeManifest manifest;
  manifest.backend = static_cast<IndexBackend>(backend);
  manifest.metric = static_cast<Metric>(metric);
  manifest.storage = static_cast<Storage>(storage);
  manifest.dim = dim;
  manifest.live_tables = live_tables;
  manifest.shard_files.resize(num_shards);
  for (auto& name : manifest.shard_files) {
    uint64_t len = 0;
    if (!ReadPod(in, &len) || len > (1u << 16)) {
      return Status::IoError("truncated lake manifest " + path);
    }
    name.resize(len);
    in.read(name.data(), static_cast<std::streamsize>(len));
    if (!in) return Status::IoError("truncated lake manifest " + path);
  }
  uint64_t num_tables = 0;
  if (!ReadPod(in, &num_tables) || num_tables > (1ull << 32)) {
    return Status::IoError("truncated lake manifest " + path);
  }
  // Records are appended as they arrive (reserve capped like the
  // tombstone reader's), so a corrupt count ends in a truncation Status,
  // not an allocation of its size.
  manifest.locator.reserve(std::min<uint64_t>(num_tables, 1024));
  for (uint64_t t = 0; t < num_tables; ++t) {
    uint32_t shard = 0;
    uint64_t local = 0;
    if (!ReadPod(in, &shard) || !ReadPod(in, &local)) {
      return Status::IoError("truncated lake manifest " + path);
    }
    if (shard >= num_shards) {
      return Status::ParseError("lake manifest " + path +
                                " routes a table to a nonexistent shard");
    }
    manifest.locator.emplace_back(shard, local);
  }
  if (version < 3) {
    manifest.live_tables = num_tables;  // pre-churn manifests: all live
  } else if (manifest.live_tables > num_tables) {
    return Status::ParseError("lake manifest " + path +
                              " claims more live tables than tables");
  }
  return manifest;
}

}  // namespace tsfm::search
