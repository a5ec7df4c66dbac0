// lake_search: offline/online data discovery over a directory of CSVs —
// the paper's recommended deployment (Sec V).
//
// Offline:  ./build/lake_search index <dir-of-csvs> <index-file> [flat|hnsw] [shards]
// Online:   ./build/lake_search query <index-file> <query.csv> [k]
// Remote:   ./build/lake_search remote <socket-path> <query.csv> [k]
//           (queries a running lake_server instead of loading the index)
//
// The offline half picks the ANN backend (exact flat scan by default, HNSW
// for big lakes) and the shard count (1 keeps a single index; N > 1 writes
// a "LAKS" manifest plus one shard file per shard); both choices are stored
// on disk, so the online half reopens the index with identical behaviour.
// Legacy single-file indexes still load as one shard.
//
// With no arguments, runs a self-contained demo: synthesizes a small lake
// in a temp directory, indexes it with both backends, and queries it.
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string_view>

#include "core/embedder.h"
#include "core/model.h"
#include "lakebench/corpus.h"
#include "lakebench/datagen.h"
#include "search/sharded_lake_index.h"
#include "server/lake_client.h"
#include "table/csv.h"

using namespace tsfm;
namespace fs = std::filesystem;

namespace {

// A fixed small config so offline and online halves agree without shipping
// a model checkpoint next to the index. A real deployment would store the
// model alongside (nn::SaveCheckpoint) — see README.
core::TabSketchFMConfig FixedConfig(size_t vocab_size) {
  core::TabSketchFMConfig config;
  config.encoder.hidden = 32;
  config.encoder.num_layers = 2;
  config.encoder.num_heads = 2;
  config.encoder.ffn_dim = 64;
  config.encoder.dropout = 0.0f;
  config.vocab_size = vocab_size;
  config.num_perm = 16;
  return config;
}

// Deterministic vocabulary so both halves tokenize identically.
text::Vocab FixedVocab() {
  lakebench::DomainCatalog catalog(99, 100);
  lakebench::CorpusScale cscale;
  cscale.num_tables = 12;
  cscale.augmentations = 0;
  auto corpus = lakebench::MakePretrainCorpus(catalog, cscale, 99);
  return lakebench::BuildVocabFromTables(corpus, /*include_cells=*/false);
}

std::vector<std::vector<float>> EmbedTable(const core::Embedder& embedder,
                                           Table* table) {
  table->InferTypes();
  SketchOptions sopt;
  sopt.num_perm = 16;
  return embedder.ColumnEmbeddings(BuildTableSketch(*table, sopt));
}

// The full model/encoder wiring every command needs, built once and kept
// together so the index/query/remote paths cannot drift apart. Members
// hold pointers into each other; construct in place and don't move.
struct EmbedderStack {
  EmbedderStack()
      : vocab(FixedVocab()),
        config(FixedConfig(vocab.size())),
        rng(1),
        model(config, &rng),
        tokenizer(&vocab),
        input_encoder(&config, &tokenizer),
        embedder(&model, &input_encoder) {}

  EmbedderStack(const EmbedderStack&) = delete;
  EmbedderStack& operator=(const EmbedderStack&) = delete;

  size_t dim() const {
    return config.encoder.hidden + 2 * config.num_perm + config.encoder.hidden;
  }

  text::Vocab vocab;
  core::TabSketchFMConfig config;
  Rng rng;
  core::TabSketchFM model;
  text::Tokenizer tokenizer;
  core::InputEncoder input_encoder;
  core::Embedder embedder;
};

int IndexCommand(const std::string& dir, const std::string& index_path,
                 search::IndexBackend backend, size_t shards,
                 search::Storage storage) {
  EmbedderStack stack;

  search::IndexOptions options;
  options.backend = backend;
  options.storage = storage;
  search::ShardedLakeIndex lake(stack.dim(), shards, options);

  size_t indexed = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".csv") continue;
    auto parsed = ReadCsvFile(entry.path().string());
    if (!parsed.ok()) {
      std::fprintf(stderr, "skipping %s: %s\n", entry.path().c_str(),
                   parsed.status().ToString().c_str());
      continue;
    }
    Table table = parsed.value();
    lake.AddTable(entry.path().filename().string(),
                  EmbedTable(stack.embedder, &table));
    ++indexed;
  }
  Status status = lake.Save(index_path);
  if (!status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("indexed %zu tables -> %s (%s backend, %s storage, %zu shard%s)\n",
              indexed, index_path.c_str(),
              backend == search::IndexBackend::kHnsw ? "hnsw" : "flat",
              lake.options().storage == search::Storage::kSq8 ? "sq8"
                                                              : "float32",
              lake.num_shards(), lake.num_shards() == 1 ? "" : "s");
  return 0;
}

int QueryCommand(const std::string& index_path, const std::string& csv_path,
                 size_t k) {
  auto loaded = search::ShardedLakeIndex::Load(index_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("index: %zu tables, dim %zu, %s backend, %s storage, %zu shard%s\n",
              loaded.value().num_tables(), loaded.value().dim(),
              loaded.value().options().backend == search::IndexBackend::kHnsw
                  ? "hnsw"
                  : "flat",
              loaded.value().options().storage == search::Storage::kSq8
                  ? "sq8"
                  : "float32",
              loaded.value().num_shards(),
              loaded.value().num_shards() == 1 ? "" : "s");
  auto parsed = ReadCsvFile(csv_path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "query read failed: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }

  EmbedderStack stack;
  Table table = parsed.value();
  auto columns = EmbedTable(stack.embedder, &table);
  std::printf("unionable candidates for %s:\n", csv_path.c_str());
  for (const auto& id : loaded.value().QueryUnionable(columns, k)) {
    std::printf("  %s\n", id.c_str());
  }
  std::printf("joinable candidates on column '%s':\n",
              table.column(0).name.c_str());
  for (const auto& id : loaded.value().QueryJoinable(columns[0], k)) {
    std::printf("  %s\n", id.c_str());
  }
  return 0;
}

// Same embedding + query flow as QueryCommand, but the index lives in a
// running lake_server process; only the query table is embedded locally.
int RemoteCommand(const std::string& socket_path, const std::string& csv_path,
                  size_t k) {
  auto parsed = ReadCsvFile(csv_path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "query read failed: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  EmbedderStack stack;
  Table table = parsed.value();
  // Embed before connecting: the server dedicates a handler to each open
  // connection, and the model forward pass can take a while.
  auto columns = EmbedTable(stack.embedder, &table);
  server::LakeClient client;
  if (Status status = client.Connect(socket_path); !status.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", status.ToString().c_str());
    return 1;
  }
  auto unionable = client.QueryUnionable(columns, k);
  if (!unionable.ok()) {
    std::fprintf(stderr, "union query failed: %s\n",
                 unionable.status().ToString().c_str());
    return 1;
  }
  std::printf("unionable candidates for %s:\n", csv_path.c_str());
  for (const auto& id : unionable.value()) std::printf("  %s\n", id.c_str());

  auto joinable = client.QueryJoinable(columns[0], k);
  if (!joinable.ok()) {
    std::fprintf(stderr, "join query failed: %s\n",
                 joinable.status().ToString().c_str());
    return 1;
  }
  std::printf("joinable candidates on column '%s':\n",
              table.column(0).name.c_str());
  for (const auto& id : joinable.value()) std::printf("  %s\n", id.c_str());
  return 0;
}

int Demo() {
  fs::path dir = fs::temp_directory_path() / "tsfm_lake_demo";
  fs::create_directories(dir);
  lakebench::DomainCatalog catalog(5, 80);
  Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    Table t = lakebench::GenerateDomainTable(
        catalog.domain(static_cast<size_t>(i) % catalog.size()),
        "demo_" + std::to_string(i), 24, &rng);
    if (Status s = WriteCsvFile(t, (dir / (t.id() + ".csv")).string());
        !s.ok()) {
      std::fprintf(stderr, "write %s: %s\n", t.id().c_str(),
                   s.ToString().c_str());
      return 1;
    }
  }
  // Query with a fresh table from domain 0: demo_0.csv should rank high.
  Table query = lakebench::GenerateDomainTable(catalog.domain(0), "query", 24, &rng);
  std::string query_path = (dir / "query.csv").string();
  if (Status s = WriteCsvFile(query, query_path); !s.ok()) {
    std::fprintf(stderr, "write query: %s\n", s.ToString().c_str());
    return 1;
  }
  // Index and query with both ANN backends, unsharded and sharded; the
  // flat results are identical across shard counts while HNSW stays
  // sublinear as the lake grows.
  for (auto backend : {search::IndexBackend::kFlat, search::IndexBackend::kHnsw}) {
    for (size_t shards : {size_t{1}, size_t{3}}) {
      std::string index_path = (dir / "lake.idx").string();
      if (IndexCommand(dir.string(), index_path, backend, shards,
                       search::Storage::kFloat32) != 0) {
        return 1;
      }
      if (int rc = QueryCommand(index_path, query_path, 3); rc != 0) return rc;
    }
  }
  return 0;
}

// A count argument (k, shards): digits only and > 0. strtoul would read
// "abc" as 0 and "-1" as SIZE_MAX.
std::optional<size_t> ParseCount(std::string_view arg) {
  size_t value = 0;
  const auto [end, ec] =
      std::from_chars(arg.data(), arg.data() + arg.size(), value);
  if (ec != std::errc() || end != arg.data() + arg.size() || value == 0) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) {
    std::printf("(no arguments; running the self-contained demo)\n\n");
    return Demo();
  }
  std::string command = argv[1];
  if (command == "index" && argc >= 4) {
    // Positional: <dir> <index-file> [flat|hnsw] [shards]; the row codec is
    // a flag (--storage sq8|float32) so old invocations keep working.
    search::IndexBackend backend = search::IndexBackend::kFlat;
    search::Storage storage = search::Storage::kFloat32;
    std::vector<std::string> positional;
    for (int i = 4; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--storage") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "--storage needs a value (sq8 or float32)\n");
          return 2;
        }
        std::string value = argv[++i];
        if (value == "sq8") {
          storage = search::Storage::kSq8;
        } else if (value != "float32") {
          std::fprintf(stderr,
                       "unknown storage '%s' (expected sq8 or float32)\n",
                       value.c_str());
          return 2;
        }
      } else {
        positional.push_back(std::move(arg));
      }
    }
    if (positional.size() > 2) {
      std::fprintf(stderr, "too many index arguments\n");
      return 2;
    }
    if (!positional.empty()) {
      if (positional[0] == "hnsw") {
        backend = search::IndexBackend::kHnsw;
      } else if (positional[0] != "flat") {
        std::fprintf(stderr, "unknown backend '%s' (expected flat or hnsw)\n",
                     positional[0].c_str());
        return 2;
      }
    }
    const std::optional<size_t> shards =
        positional.size() == 2 ? ParseCount(positional[1]) : 1;
    if (shards) {
      return IndexCommand(argv[2], argv[3], backend, *shards, storage);
    }
  } else if ((command == "query" || command == "remote") &&
             (argc == 4 || argc == 5)) {
    const std::optional<size_t> k = argc == 5 ? ParseCount(argv[4]) : 5;
    if (k && command == "query") return QueryCommand(argv[2], argv[3], *k);
    if (k) return RemoteCommand(argv[2], argv[3], *k);
  }
  std::fprintf(stderr,
               "usage: lake_search index <dir> <index-file> [flat|hnsw] "
               "[shards] [--storage sq8|float32]\n"
               "       lake_search query <index-file> <query.csv> [k]\n"
               "       lake_search remote <socket-path> <query.csv> [k]\n");
  return 2;
}
