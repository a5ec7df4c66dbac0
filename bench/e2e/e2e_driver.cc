// End-to-end discovery benchmark driver.
//
// Times table search the way a user runs it: query CSV text -> ParseCsv ->
// Table::InferTypes -> BuildTableSketch -> Embedder::ColumnEmbeddings ->
// LakeClient::QueryJoinable/QueryUnionable against a LakeServer (in-process
// shards, or a coordinator over forked shard workers) -> ranked table ids.
// Everything goes through the public API; the program under test only ever
// sees CSV text and embeddings. Each workload's lake is fixed; --seed draws
// the query stream (query order and arrival schedule). A run is a series of
// rounds, each an open-loop slice, a closed-loop slice and a writer slice
// that adds and removes tables, then a compaction. The answers are checked
// (repeatability across the compactions, served vs direct backend,
// distributed vs in-process twin, P@10 floor) and a failed check exits
// non-zero.
//
// Usage (normally through bench/e2e/run.sh, from the repository root):
//   e2e_driver --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--smoke]
//
// Prints one "workload metric value unit" line per metric, then one JSON
// object as the last line of stdout: the end-to-end metrics, or with
// --trace 1 the per-layer metrics. bench/e2e/README.md defines them all.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/embedder.h"
#include "core/model.h"
#include "lakebench/corpus.h"
#include "lakebench/datagen.h"
#include "lakebench/search_benchmarks.h"
#include "search/metrics.h"
#include "search/sharded_lake_index.h"
#include "server/backend.h"
#include "server/lake_client.h"
#include "server/lake_server.h"
#include "server/shard_worker.h"
#include "table/csv.h"
#include "util/random.h"
#include "util/thread_pool.h"

using namespace tsfm;
namespace fs = std::filesystem;
using server::LakeClient;

namespace {

// Traces and the run's scratch files (sockets, saved lakes), relative to
// the repository root the driver runs from.
constexpr const char* kOutDir = "bench/e2e/out";
constexpr size_t kTopK = 10;
// The query table is itself in the lake and ranks first, so each query
// asks for one id more than it scores and drops its own.
constexpr size_t kRequestK = kTopK + 1;
// ShardedLakeIndex and DistributedLakeIndex fetch k * 3 column hits per
// query column before the Fig 6 ranking (sharded_lake_index.cc,
// RankUnionableLocked). The replays ask for the same count, so a change to
// that factor moves the search.hits_ms / search.rank_ms split.
constexpr size_t kCandidates = 3 * kRequestK;
// A run is a sequence of rounds of about kRoundSeconds each, and every
// round gives these shares to an open-loop slice, a closed-loop slice and a
// writer slice. Each metric thus samples the whole run rather than one
// stretch of it, which on a shared host may be slow.
constexpr double kRoundSeconds = 5;
constexpr double kOpenShare = 0.5, kClosedShare = 0.25, kIngestShare = 0.25;
constexpr size_t kSetupRepeats = 3;
// The generator seed of every workload's lake. The lake, its queries and
// their gold are the same on every run, so P@10 and R@10 are exact and the
// run-to-run spread of the timings is the host's and the query stream's,
// not the lake's.
constexpr uint64_t kLakeSeed = 1;
constexpr size_t kReplayQueries = 200;  // traced run only
// Load threads and connections: the reference box's nproc, and never more
// than the machine's own cores (but at least the closed-loop clients).
constexpr size_t kMaxLoadThreads = 4;
constexpr size_t kClosedClients = 2;
constexpr int kClientTimeoutMs = 20000;  // a wedged server fails, not hangs
constexpr int64_t kFailedNs = std::numeric_limits<int64_t>::max();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Peak resident set so far, in MB, of this process (RUSAGE_SELF) or of its
// largest reaped child (RUSAGE_CHILDREN).
double PeakRssMb(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

// Nearest-rank percentile of an unsorted sample (p in [0, 1]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// ----------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  bool join;            // Wiki-join corpus + join queries; else union
  size_t tables;        // join: corpus tables; union: seed tables
  size_t variants;      // union: slices per seed table
  size_t rows;
  size_t shards;
  bool distributed;     // LAKS lake served by forked shard workers
  double open_rate;     // Poisson arrivals per second in the open loop
  double p_at_10_floor; // every run must reach it
  // The generator's queries; the timed slices cycle through them and
  // P@10/R@10 score them all against the generator's gold.
  size_t queries = 200;
};

// Why each workload exists is in README.md. The open rates are about a
// fifth of each workload's closed-loop qps on a 4-core box, so that a slow
// stretch of a shared host, which can nearly halve that qps, leaves the
// server far from saturation and the tail latency does not balloon. The
// lakes are fixed, so P@10 is the same on every run; each floor is that
// value less 0.005.
std::vector<Workload> Workloads(bool smoke) {
  std::vector<Workload> all = {
      {"wide-query", false, 200, 12, 1024, 4, false, 100, 0.181},
      {"large-lake", false, 2000, 12, 32, 4, false, 70, 0.102},
      {"join-distributed", true, 4000, 0, 16, 2, true, 500, 0.258},
  };
  if (smoke) {
    for (Workload& w : all) {
      w.tables = w.join ? 200 : 8;
      w.rows = std::min<size_t>(w.rows, 64);
      w.queries = 40;
      w.p_at_10_floor = 0.0;  // the check runs; the tiny lakes set no floor
    }
  }
  return all;
}

// ------------------------------------------------------------- model + data

text::Vocab FixedVocab() {
  lakebench::DomainCatalog catalog(99, 100);
  lakebench::CorpusScale scale;
  scale.num_tables = 12;
  scale.augmentations = 0;
  return lakebench::BuildVocabFromTables(
      lakebench::MakePretrainCorpus(catalog, scale, 99),
      /*include_cells=*/false);
}

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

// The fixed, seeded, untrained model stack of examples/lake_search.cpp
// (96-dim column embeddings). Pretraining would take minutes; quality here
// only has to catch regressions. Members point into each other: construct
// in place, never move.
struct ModelStack {
  ModelStack()
      : vocab(FixedVocab()),
        config(FixedConfig(vocab.size())),
        rng(1),
        model(config, &rng),
        tokenizer(&vocab),
        encoder(&config, &tokenizer),
        embedder(&model, &encoder) {
    sketch_options.num_perm = config.num_perm;
  }
  ModelStack(const ModelStack&) = delete;
  ModelStack& operator=(const ModelStack&) = delete;

  size_t dim() const { return 2 * config.encoder.hidden + 2 * config.num_perm; }

  text::Vocab vocab;
  core::TabSketchFMConfig config;
  Rng rng;
  core::TabSketchFM model;
  text::Tokenizer tokenizer;
  core::InputEncoder encoder;
  core::Embedder embedder;
  SketchOptions sketch_options;
};

// One CSV file of the lake plus the name and description a catalog keeps
// next to it.
struct LakeFile {
  std::string id;
  std::string description;
  std::string csv;
};

struct Corpus {
  std::vector<LakeFile> files;
  std::vector<size_t> query_file;         // per query: its file
  std::vector<std::vector<size_t>> gold;  // per query: relevant files
  std::unordered_map<std::string, size_t> file_of;
};

Corpus MakeCorpus(const Workload& w) {
  const uint64_t seed = kLakeSeed;
  lakebench::SearchBenchmark bench;
  if (w.join) {
    lakebench::WikiJoinScale scale;
    scale.num_tables = w.tables;
    scale.num_queries = w.queries;
    scale.rows = w.rows;
    bench = lakebench::MakeWikiJoinSearch(scale, seed);
  } else {
    lakebench::UnionSearchScale scale;
    scale.num_seeds = w.tables;
    scale.variants_per_seed = w.variants;
    scale.num_queries = w.queries;
    scale.rows = w.rows;
    // A fixed domain catalog: the seed draws the lake's tables, not the
    // universe of schemas they come from.
    bench = lakebench::MakeUnionSearch(lakebench::DomainCatalog(42, 200),
                                       scale, seed, "lake");
  }
  Corpus corpus;
  corpus.files.reserve(bench.tables.size());
  for (const Table& t : bench.tables) {
    corpus.file_of.emplace(t.id(), corpus.files.size());
    corpus.files.push_back({t.id(), t.description(), WriteCsv(t)});
  }
  for (const auto& q : bench.queries) {
    corpus.query_file.push_back(q.table_index);
  }
  corpus.gold = std::move(bench.gold);
  return corpus;
}

// Timestamps taken tightly around each public call, so the gaps between
// spans are the driver's own bookkeeping (trace.coverage measures them).
struct StageTimes {
  int64_t parse[2] = {0, 0};
  int64_t infer[2] = {0, 0};
  int64_t sketch[2] = {0, 0};
  int64_t embed[2] = {0, 0};
};

struct Embedded {
  TableSketch sketch;
  std::vector<std::vector<float>> columns;
};

Result<Embedded> EmbedCsv(const ModelStack& m, const LakeFile& file,
                          const std::string& id, StageTimes* t) {
  t->parse[0] = NowNs();
  Result<Table> parsed = ParseCsv(file.csv);
  t->parse[1] = NowNs();
  if (!parsed.ok()) return parsed.status();
  Table table = std::move(parsed).value();
  table.set_id(id);
  table.set_description(file.description);
  t->infer[0] = NowNs();
  table.InferTypes();
  t->infer[1] = NowNs();
  Embedded e;
  t->sketch[0] = NowNs();
  e.sketch = BuildTableSketch(table, m.sketch_options);
  t->sketch[1] = NowNs();
  t->embed[0] = NowNs();
  e.columns = m.embedder.ColumnEmbeddings(e.sketch);
  t->embed[1] = NowNs();
  if (e.columns.empty()) return Status::InvalidArgument(id + " has no columns");
  return e;
}

// ------------------------------------------------------------------ tracing

enum Stage : uint8_t {
  kQuery, kWait, kLag, kParse, kInfer, kSketch, kEmbed, kRtt, kEncode,
  kIngest, kAdd, kRemove, kReplay, kHits, kLocalQuery, kShardQuery,
  kServedQuery, kNumStages
};
constexpr const char* kStageNames[kNumStages] = {
    "query",         "bench.wait",  "bench.lag",     "table.parse",
    "table.infer",   "sketch.build", "core.embed",   "server.rtt",
    "core.encode",   "ingest",      "server.add",    "server.remove",
    "replay",        "search.hits", "replay.local",  "server.shard_query",
    "replay.served"};

struct Span {
  Stage stage;
  int32_t parent;  // index into the same thread's spans, -1 for a root
  int64_t query;   // arrival index, writer generation or query number
  int64_t start;
  int64_t end;
};

// One per thread; spans stay in memory until the run ends.
struct Trace {
  std::vector<Span> spans;
  int32_t Add(Stage stage, int64_t start, int64_t end, int32_t parent,
              int64_t query) {
    spans.push_back({stage, parent, query, start, end});
    return static_cast<int32_t>(spans.size() - 1);
  }
};

// ------------------------------------------------------------------- report

// kEndToEnd and kLayer metrics are the ones BENCHMARK.json lists; the
// result line carries one set or the other. kInfo ones are printed only.
enum class Kind { kEndToEnd, kLayer, kInfo };

struct Metric {
  std::string name;
  double value;
  std::string unit;
  Kind kind;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  bool smoke = false;
};

// -------------------------------------------------------------------- bench

using Answers = std::vector<std::vector<std::string>>;

class Bench {
 public:
  Bench(const Workload& w, const Options& o)
      : w_(w), o_(o), load_threads_(std::clamp<size_t>(
                          std::thread::hardware_concurrency(), 2,
                          kMaxLoadThreads)) {}
  ~Bench() { Teardown(); }

  // Returns the process exit code; prints metrics and the result line.
  int Run();

 private:
  struct QueryResult {
    Status status;
    std::vector<std::string> ids;
    Embedded query;
    StageTimes t;
    int64_t rtt[2] = {0, 0};
  };

  Status Setup(double* seconds);
  void Teardown();
  Status ConnectClients();
  // What query q's search sends: its table's set-up embeddings (the
  // warm-up checks that the query path embeds them identically), just the
  // key column for a join.
  std::vector<std::vector<float>> QueryColumns(size_t q) const;
  Result<Answers> AskBackend(const server::LakeBackend& backend, size_t first,
                             size_t count, ThreadPool* pool) const;
  QueryResult RunQuery(LakeClient* client, size_t q) const;
  Status WarmUp();
  void Rounds();
  void OpenPhase(double seconds, size_t senders, Rng* arrivals);
  void ClosedPhase(double seconds, size_t clients);
  void Writer(double seconds);
  void CheckAndScore();
  void Replay();
  void Quality(const Answers& answers);
  void Fail(const std::string& what);
  void Progress(const std::string& what) const {
    std::fprintf(stderr, "[%s +%.1fs] %s\n", w_.name,
                 static_cast<double>(NowNs() - origin_) / 1e9, what.c_str());
  }
  void Count(bool ok);
  std::vector<double> Durations(Stage stage) const;
  void LayerMetrics();
  Status WriteChromeTrace(const std::string& path) const;
  void PrintResult() const;
  void Add(const std::string& name, double value, const std::string& unit,
           Kind kind) {
    metrics_.push_back({name, value, unit, kind});
  }
  void AddP50P99(const std::string& name, const std::vector<double>& ms) {
    Add(name + ".p50", Percentile(ms, 0.50), "ms", Kind::kLayer);
    Add(name + ".p99", Percentile(ms, 0.99), "ms", Kind::kLayer);
  }

  const Workload w_;
  const Options o_;
  const size_t load_threads_;
  const int64_t origin_ = NowNs();
  ModelStack model_;
  Corpus corpus_;

  std::string work_dir_, socket_, manifest_, worker_prefix_;
  // Declared before server_: the coordinator must stop before its workers.
  server::ShardWorkerFleet fleet_;
  std::unique_ptr<server::LakeServer> server_;
  std::vector<std::unique_ptr<LakeClient>> clients_;
  std::unique_ptr<server::InProcessBackend> twin_;  // distributed only

  std::vector<std::vector<std::vector<float>>> lake_columns_;  // per file
  Answers refs_;                // warm-up answer per query
  std::vector<size_t> order_;   // the timed slices' query order, from --seed
  uint64_t generation_ = 0;     // writer copies made so far

  std::vector<int64_t> latency_;  // per open-loop arrival, all rounds
  std::vector<bool> traced_;
  // Per closed-loop client: its next position in order_, kept across rounds
  // so that over a run every query is asked about equally often.
  std::vector<size_t> closed_next_;
  // Summed over the rounds: answers and steps completed, and seconds spent.
  double closed_done_ = 0, closed_s_ = 0, ingest_done_ = 0, ingest_s_ = 0;
  double harness_rss_mb_ = 0;  // peak once the lake is embedded, no server
  double driver_rss_mb_ = 0;   // peak at the end of the rounds
  server::ServerStats open_stats_;  // summed over the open-loop slices
  size_t checked_columns_ = 0;  // lake columns the checks searched

  std::vector<Trace> traces_ = std::vector<Trace>(kMaxLoadThreads + 2);
  std::vector<double> rank_ms_, shard_ms_, coordinator_ms_;  // replays
  std::vector<double> compact_ms_;  // per round
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::atomic<uint64_t> attempted_{0}, failed_{0};
  std::atomic<uint64_t> answer_mismatches_{0}, embed_mismatches_{0};
};

void Bench::Fail(const std::string& what) { failures_.push_back(what); }

void Bench::Count(bool ok) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
}

void Bench::Teardown() {
  clients_.clear();
  server_.reset();
  // Not StopAll(): a stopped fleet keeps its socket names and unlinks them
  // again when assigned over, which would remove the next set-up's sockets.
  fleet_ = server::ShardWorkerFleet();
}

// One timed set-up: corpus CSV text in memory -> a server accepting
// connections. Embedding fans out over the load threads; AddTable runs in
// corpus order so handles (and tie order) are the same on every run.
Status Bench::Setup(double* seconds) {
  Teardown();
  lake_columns_ = {};  // so the harness never holds two copies at once
  const int64_t t0 = NowNs();
  std::vector<std::vector<std::vector<float>>> columns(corpus_.files.size());
  std::vector<Status> errors(load_threads_);
  std::atomic<size_t> next{0};
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < load_threads_; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i; (i = next.fetch_add(1)) < corpus_.files.size();) {
          StageTimes st;
          Result<Embedded> e =
              EmbedCsv(model_, corpus_.files[i], corpus_.files[i].id, &st);
          if (!e.ok()) {
            errors[t] = e.status();
            return;
          }
          columns[i] = std::move(e).value().columns;
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  for (const Status& s : errors) {
    if (!s.ok()) return s;
  }
  if (harness_rss_mb_ == 0) harness_rss_mb_ = PeakRssMb(RUSAGE_SELF);
  search::ShardedLakeIndex lake(model_.dim(), w_.shards);
  for (size_t i = 0; i < corpus_.files.size(); ++i) {
    lake.AddTable(corpus_.files[i].id, columns[i]);
  }
  const server::ServerOptions options;
  if (w_.distributed) {
    if (Status s = lake.Save(manifest_); !s.ok()) return s;
    // Every set-up thread has been joined: Spawn forks.
    auto fleet = server::ShardWorkerFleet::Spawn(manifest_, worker_prefix_);
    if (!fleet.ok()) return fleet.status();
    fleet_ = std::move(fleet).value();
    auto coordinator =
        server::DistributedLakeIndex::Connect(manifest_, fleet_.sockets());
    if (!coordinator.ok()) return coordinator.status();
    server_ = std::make_unique<server::LakeServer>(
        std::move(coordinator).value(), options);
  } else {
    server_ = std::make_unique<server::LakeServer>(std::move(lake), options);
  }
  if (Status s = server_->Start(socket_); !s.ok()) return s;
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  lake_columns_ = std::move(columns);
  return Status::OK();
}

Status Bench::ConnectClients() {
  clients_.clear();
  for (size_t c = 0; c < load_threads_; ++c) {
    clients_.push_back(std::make_unique<LakeClient>());
    clients_.back()->set_timeout_ms(kClientTimeoutMs);
    if (Status s = clients_.back()->Connect(socket_); !s.ok()) return s;
  }
  return Status::OK();
}

std::vector<std::vector<float>> Bench::QueryColumns(size_t q) const {
  const auto& columns = lake_columns_[corpus_.query_file[q]];
  return w_.join ? std::vector<std::vector<float>>{columns[0]} : columns;
}

// Queries [first, first + count) asked of a backend directly, as one batch.
Result<Answers> Bench::AskBackend(const server::LakeBackend& backend,
                                  size_t first, size_t count,
                                  ThreadPool* pool) const {
  if (w_.join) {
    std::vector<std::vector<float>> keys;
    for (size_t q = first; q < first + count; ++q) {
      keys.push_back(std::move(QueryColumns(q)[0]));
    }
    return backend.QueryJoinableBatch(keys, kRequestK, pool);
  }
  std::vector<std::vector<std::vector<float>>> queries;
  for (size_t q = first; q < first + count; ++q) {
    queries.push_back(QueryColumns(q));
  }
  return backend.QueryUnionableBatch(queries, kRequestK, pool);
}

Bench::QueryResult Bench::RunQuery(LakeClient* client, size_t q) const {
  QueryResult r;
  const LakeFile& file = corpus_.files[corpus_.query_file[q]];
  Result<Embedded> e = EmbedCsv(model_, file, file.id, &r.t);
  if (!e.ok()) {
    r.status = e.status();
    return r;
  }
  r.query = std::move(e).value();
  r.rtt[0] = NowNs();
  Result<std::vector<std::string>> ids =
      w_.join ? client->QueryJoinable(r.query.columns[0], kRequestK)
              : client->QueryUnionable(r.query.columns, kRequestK);
  r.rtt[1] = NowNs();
  if (!ids.ok()) {
    r.status = ids.status();
    return r;
  }
  r.ids = std::move(ids).value();
  return r;
}

// Runs every query once over all load connections: fills the caches and
// records the reference answers the timed slices must repeat.
Status Bench::WarmUp() {
  const size_t n = corpus_.query_file.size();
  refs_.assign(n, {});
  std::vector<Status> errors(clients_.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients_.size(); ++c) {
    threads.emplace_back([&, c] {
      for (size_t q = c; q < n; q += clients_.size()) {
        QueryResult r = RunQuery(clients_[c].get(), q);
        Count(r.status.ok());
        if (!r.status.ok()) {
          errors[c] = r.status;
          return;
        }
        if (r.query.columns != lake_columns_[corpus_.query_file[q]]) {
          embed_mismatches_.fetch_add(1);
        }
        refs_[q] = std::move(r.ids);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const Status& s : errors) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// One open-loop slice: Poisson arrivals at w_.open_rate, each timed from
// its due time; up to `senders` threads each hold one connection. The
// slice's arrivals continue the run's numbering, and arrival i asks query
// order_[i mod queries], so every query is asked equally often. With
// --trace 1 every even arrival records spans, so the odd ones give the
// untraced baseline.
void Bench::OpenPhase(double seconds, size_t senders, Rng* arrivals) {
  std::vector<int64_t> offsets;  // per arrival: due time - slice start
  for (double t = 0;;) {
    t += -std::log(1.0 - arrivals->UniformDouble()) / w_.open_rate;
    if (t >= seconds) break;
    offsets.push_back(static_cast<int64_t>(t * 1e9));
  }
  const size_t first = latency_.size();
  latency_.resize(first + offsets.size(), kFailedNs);
  traced_.resize(first + offsets.size(), false);
  for (size_t i = first; i < traced_.size(); ++i) {
    traced_[i] = o_.trace && i % 2 == 0;
  }
  std::atomic<size_t> next{first};
  const int64_t start = NowNs() + 20'000'000;  // let the senders park first
  std::vector<std::thread> threads;
  for (size_t s = 0; s < senders; ++s) {
    threads.emplace_back([&, s] {
      LakeClient* client = clients_[s].get();
      Trace* trace = &traces_[1 + s];
      for (size_t i; (i = next.fetch_add(1)) < latency_.size();) {
        const int64_t due = start + offsets[i - first];
        int64_t wake = -1;  // set when this sender idled until the due time
        if (NowNs() < due) {
          SleepUntilNs(due);
          wake = NowNs();
        }
        const size_t q = order_[i % order_.size()];
        QueryResult r = RunQuery(client, q);
        const int64_t done = NowNs();
        Count(r.status.ok());
        if (!r.status.ok()) continue;  // latency stays kFailedNs
        latency_[i] = done - due;
        if (r.ids != refs_[q]) answer_mismatches_.fetch_add(1);
        if (!traced_[i]) continue;
        const auto id = static_cast<int64_t>(i);
        const int32_t root = trace->Add(kQuery, due, done, -1, id);
        trace->Add(kWait, due, r.t.parse[0], root, id);
        if (wake >= 0) trace->Add(kLag, due, wake, root, id);
        trace->Add(kParse, r.t.parse[0], r.t.parse[1], root, id);
        trace->Add(kInfer, r.t.infer[0], r.t.infer[1], root, id);
        trace->Add(kSketch, r.t.sketch[0], r.t.sketch[1], root, id);
        trace->Add(kEmbed, r.t.embed[0], r.t.embed[1], root, id);
        trace->Add(kRtt, r.rtt[0], r.rtt[1], root, id);
        // InputEncoder::EncodeTable runs inside ColumnEmbeddings; an extra
        // call on the same sketch, after the answer is in, times it alone.
        const int64_t e0 = NowNs();
        core::EncodedTable encoded = model_.encoder.EncodeTable(r.query.sketch);
        trace->Add(kEncode, e0, NowNs(), -1, id);
      }
    });
  }
  for (auto& th : threads) th.join();
}

// One closed-loop slice: `clients` callers, each sending its next query as
// soon as the previous answer is in, each cycling through order_ from where
// it stopped in the last round (at first, from its own offset).
void Bench::ClosedPhase(double seconds, size_t clients) {
  if (closed_next_.empty()) {
    for (size_t c = 0; c < clients; ++c) {
      closed_next_.push_back(c * order_.size() / clients);
    }
  }
  std::atomic<uint64_t> completed{0};
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t& n = closed_next_[c]; NowNs() < deadline; ++n) {
        const size_t q = order_[n % order_.size()];
        QueryResult r = RunQuery(clients_[c].get(), q);
        Count(r.status.ok());
        if (!r.status.ok()) continue;
        completed.fetch_add(1);
        if (r.ids != refs_[q]) answer_mismatches_.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  closed_done_ += static_cast<double>(completed.load());
  closed_s_ += static_cast<double>(NowNs() - start) / 1e9;
}

// One writer slice on the first connection, steps back to back: each step
// ingests a fresh copy of the next corpus file under a new id (CSV ->
// embed -> AddTable) and then removes that copy, so once compacted the
// lake is again the one the warm-up answered on.
void Bench::Writer(double seconds) {
  LakeClient* client = clients_[0].get();
  Trace* trace = &traces_.back();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    const uint64_t g = generation_++;
    const size_t file = g % corpus_.files.size();
    const std::string id = corpus_.files[file].id + "@" + std::to_string(g);
    const int64_t t0 = NowNs();
    StageTimes st;
    Result<Embedded> e = EmbedCsv(model_, corpus_.files[file], id, &st);
    if (!e.ok()) {
      Count(false);
      continue;
    }
    // The id is not a model input: the copy embeds like the original.
    if (e.value().columns != lake_columns_[file]) {
      embed_mismatches_.fetch_add(1);
    }
    const int64_t a0 = NowNs();
    Status added = client->AddTable(id, e.value().columns);
    const int64_t a1 = NowNs();
    Count(added.ok());
    if (!added.ok()) continue;
    const int64_t r0 = NowNs();
    Status removed = client->RemoveTable(id);
    const int64_t r1 = NowNs();
    Count(removed.ok());
    if (!removed.ok()) continue;
    ++ingest_done_;
    if (o_.trace) {
      const auto qid = static_cast<int64_t>(g);
      const int32_t root = trace->Add(kIngest, t0, r1, -1, qid);
      trace->Add(kAdd, a0, a1, root, qid);
      trace->Add(kRemove, r0, r1, root, qid);
    }
  }
  ingest_s_ += static_cast<double>(NowNs() - start) / 1e9;
}

// The timed rounds; see kRoundSeconds. Each round ends with a compaction
// (untimed), so every round's queries meet the set-up lake.
void Bench::Rounds() {
  const size_t rounds = std::max<size_t>(
      1, static_cast<size_t>(std::lround(o_.seconds / kRoundSeconds)));
  const double round_s = o_.seconds / static_cast<double>(rounds);
  Rng arrivals(o_.seed, /*stream=*/7);
  for (size_t r = 0; r < rounds; ++r) {
    auto before = clients_[0]->Stats();
    OpenPhase(round_s * kOpenShare, load_threads_, &arrivals);
    auto after = clients_[0]->Stats();
    Count(before.ok() && after.ok());
    if (before.ok() && after.ok()) {
      const server::ServerStats& a = before.value();
      const server::ServerStats& b = after.value();
      open_stats_.requests += b.requests - a.requests;
      open_stats_.batches += b.batches - a.batches;
      open_stats_.total_queue_wait_ms +=
          b.total_queue_wait_ms - a.total_queue_wait_ms;
      open_stats_.total_latency_ms += b.total_latency_ms - a.total_latency_ms;
    }
    ClosedPhase(round_s * kClosedShare, kClosedClients);
    Writer(round_s * kIngestShare);
    const int64_t c0 = NowNs();
    Status compacted = clients_[0]->Compact();
    compact_ms_.push_back(Ms(NowNs() - c0));
    Count(compacted.ok());
  }
}

// Asks every query of the serving backend directly, in one batch, after
// the last round's compaction, and checks it against what the server
// answered at warm-up, before any write. The distributed lake must also
// answer like ShardedLakeIndex::Load of its manifest. The direct answers
// then give P@10 and R@10.
void Bench::CheckAndScore() {
  ThreadPool pool(load_threads_);
  const size_t n = corpus_.query_file.size();
  if (w_.distributed) {
    auto loaded = search::ShardedLakeIndex::Load(manifest_);
    if (!loaded.ok()) {
      Fail("load " + manifest_ + ": " + loaded.status().ToString());
      return;
    }
    twin_ =
        std::make_unique<server::InProcessBackend>(std::move(loaded).value());
  }
  checked_columns_ = server_->backend().num_columns();
  auto direct = AskBackend(server_->backend(), 0, n, &pool);
  if (!direct.ok()) {
    Fail("direct backend query: " + direct.status().ToString());
    return;
  }
  size_t differ = 0;
  for (size_t q = 0; q < n; ++q) differ += refs_[q] != direct.value()[q];
  if (differ > 0) {
    Fail(std::to_string(differ) + " served answers differ from the direct "
         "backend answer");
  }
  if (twin_ != nullptr) {
    auto expected = AskBackend(*twin_, 0, n, &pool);
    if (!expected.ok() || expected.value() != direct.value()) {
      Fail("distributed answers differ from ShardedLakeIndex::Load of the "
           "same manifest");
    }
  }
  Quality(direct.value());
}

void Bench::Quality(const Answers& answers) {
  std::vector<std::vector<size_t>> ranked(answers.size());
  for (size_t q = 0; q < answers.size(); ++q) {
    for (const std::string& id : answers[q]) {
      auto it = corpus_.file_of.find(id);
      if (it == corpus_.file_of.end() || it->second == corpus_.query_file[q]) {
        continue;
      }
      if (ranked[q].size() < kTopK) ranked[q].push_back(it->second);
    }
  }
  search::SearchReport report =
      search::EvaluateSearch(ranked, corpus_.gold, kTopK);
  const double p = report.PrecisionAt(kTopK);
  Add("p_at_10", p, "frac", Kind::kEndToEnd);
  Add("r_at_10", report.RecallAt(kTopK), "frac", Kind::kEndToEnd);
  if (p < w_.p_at_10_floor) {
    Fail("p_at_10 " + std::to_string(p) + " is below the floor " +
         std::to_string(w_.p_at_10_floor));
  }
}

// Serial replays of the first queries, after the timed rounds: the search
// layer in process (hits, then the rest of the ranked call) and the
// serving backend split into the slowest shard's answer and the rest.
void Bench::Replay() {
  const server::InProcessBackend& local =
      twin_ != nullptr
          ? *twin_
          : dynamic_cast<const server::InProcessBackend&>(server_->backend());
  const server::LakeBackend& served = server_->backend();
  std::vector<std::unique_ptr<LakeClient>> shard_clients;
  for (const std::string& socket : fleet_.sockets()) {
    shard_clients.push_back(std::make_unique<LakeClient>());
    shard_clients.back()->set_timeout_ms(kClientTimeoutMs);
    if (Status s = shard_clients.back()->Connect(socket); !s.ok()) {
      Fail("connect " + socket + ": " + s.ToString());
      return;
    }
  }
  // The coordinator scatters one query over its shards in parallel only
  // when handed a pool.
  ThreadPool pool(std::max<size_t>(1, fleet_.num_workers()));
  ThreadPool* scatter_pool = w_.distributed ? &pool : nullptr;
  Trace* trace = &traces_[0];
  size_t failed_calls = 0;
  for (size_t q = 0; q < std::min(kReplayQueries, refs_.size()); ++q) {
    const std::vector<std::vector<float>> cols = QueryColumns(q);
    const auto id = static_cast<int64_t>(q);
    const int32_t root = trace->Add(kReplay, NowNs(), 0, -1, id);
    // Each call is timed as the fastest of three back-to-back runs, so the
    // differences below compare warm calls, not a cold first one.
    auto timed = [&](Stage stage, auto&& call) {
      int64_t best = std::numeric_limits<int64_t>::max(), best_end = 0;
      for (int rep = 0; rep < 3; ++rep) {
        const int64_t t0 = NowNs();
        const bool ok = call();
        const int64_t t1 = NowNs();
        failed_calls += !ok;
        if (t1 - t0 < best) {
          best = t1 - t0;
          best_end = t1;
        }
      }
      trace->Add(stage, best_end - best, best_end, root, id);
      return best;
    };
    const int64_t hits = timed(kHits, [&] {
      return !local.index().SearchColumnHitsBatch(cols, kCandidates).empty();
    });
    const int64_t ranked = timed(
        kLocalQuery, [&] { return AskBackend(local, q, 1, nullptr).ok(); });
    int64_t shard = 0;
    if (w_.distributed) {
      for (auto& client : shard_clients) {
        shard = std::max(shard, timed(kShardQuery, [&] {
                           return client->ShardQuery(cols, kCandidates).ok();
                         }));
      }
    } else {
      shard = timed(kShardQuery, [&] {
        return local.ShardQuery(cols, kCandidates, nullptr).ok();
      });
    }
    const int64_t answered = timed(kServedQuery, [&] {
      return AskBackend(served, q, 1, scatter_pool).ok();
    });
    trace->spans[root].end = NowNs();
    rank_ms_.push_back(Ms(ranked - hits));
    shard_ms_.push_back(Ms(shard));
    coordinator_ms_.push_back(Ms(answered - shard));
  }
  if (failed_calls > 0) {
    Fail(std::to_string(failed_calls) + " replayed calls failed");
  }
}

std::vector<double> Bench::Durations(Stage stage) const {
  std::vector<double> ms;
  for (const Trace& t : traces_) {
    for (const Span& s : t.spans) {
      if (s.stage == stage) ms.push_back(Ms(s.end - s.start));
    }
  }
  return ms;
}

void Bench::LayerMetrics() {
  AddP50P99("table.parse_ms", Durations(kParse));
  AddP50P99("table.infer_ms", Durations(kInfer));
  AddP50P99("sketch.build_ms", Durations(kSketch));
  AddP50P99("core.encode_ms", Durations(kEncode));
  AddP50P99("core.embed_ms", Durations(kEmbed));
  const std::vector<double> rtt = Durations(kRtt);
  AddP50P99("server.rtt_ms", rtt);

  const server::ServerStats& open = open_stats_;
  const double requests = static_cast<double>(open.requests);
  const double batches = static_cast<double>(open.batches);
  const double handle_ms = open.total_latency_ms / std::max(1.0, requests);
  Add("server.queue_wait_ms",
      open.total_queue_wait_ms / std::max(1.0, requests), "ms", Kind::kLayer);
  Add("server.handle_ms", handle_ms, "ms", Kind::kLayer);
  Add("server.avg_batch", requests / std::max(1.0, batches), "count",
      Kind::kLayer);
  Add("server.wire_ms", Mean(rtt) - handle_ms, "ms", Kind::kLayer);

  AddP50P99("search.hits_ms", Durations(kHits));
  AddP50P99("search.rank_ms", rank_ms_);
  // Computed from sizes, not measured: each query column is compared with
  // every lake column, and each comparison reads one dim-float row.
  double pairs = 0;
  for (size_t q = 0; q < refs_.size(); ++q) {
    pairs += static_cast<double>(QueryColumns(q).size());
  }
  pairs = pairs / static_cast<double>(refs_.size()) *
          static_cast<double>(checked_columns_);
  Add("search.pairs_per_query", pairs, "count", Kind::kLayer);
  Add("search.row_bytes_per_query",
      pairs * static_cast<double>(model_.dim() * sizeof(float)), "B",
      Kind::kLayer);
  AddP50P99("server.shard_query_ms", shard_ms_);
  AddP50P99("server.coordinator_ms", coordinator_ms_);
  AddP50P99("server.add_ms", Durations(kAdd));
  AddP50P99("server.remove_ms", Durations(kRemove));
  Add("server.compact_ms", Median(compact_ms_), "ms", Kind::kLayer);
  AddP50P99("bench.wait_ms", Durations(kWait));
  AddP50P99("bench.lag_ms", Durations(kLag));

  // Coverage: the query's own spans (wait, parse, infer, sketch, embed,
  // rtt) over its due-to-answer time. Overhead: traced against untraced
  // arrivals of the same run.
  std::vector<double> coverage;
  for (const Trace& t : traces_) {
    for (size_t i = 0; i < t.spans.size(); ++i) {
      const Span& root = t.spans[i];
      if (root.stage != kQuery) continue;
      int64_t covered = 0;
      for (size_t j = i + 1;
           j < t.spans.size() && t.spans[j].parent == static_cast<int32_t>(i);
           ++j) {
        if (t.spans[j].stage != kLag) {
          covered += t.spans[j].end - t.spans[j].start;
        }
      }
      coverage.push_back(static_cast<double>(covered) /
                         static_cast<double>(root.end - root.start));
    }
  }
  Add("trace.coverage", Percentile(coverage, 0.5), "frac", Kind::kLayer);
  std::vector<double> traced, untraced;
  for (size_t i = 0; i < latency_.size(); ++i) {
    if (latency_[i] == kFailedNs) continue;
    (traced_[i] ? traced : untraced).push_back(Ms(latency_[i]));
  }
  const double base = Percentile(untraced, 0.5);
  Add("trace.overhead_pct",
      base > 0 ? 100.0 * (Percentile(traced, 0.5) - base) / base : 0.0, "%",
      Kind::kLayer);
}

Status Bench::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (size_t tid = 0; tid < traces_.size(); ++tid) {
    for (const Span& s : traces_[tid].spans) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%lld,"
                   "\"parent\":%d}}",
                   first ? "" : ",\n", kStageNames[s.stage], tid,
                   static_cast<double>(s.start - origin_) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3,
                   static_cast<long long>(s.query), s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0 ? Status::OK() : Status::IoError("close " + path);
}

int Bench::Run() {
  work_dir_ = std::string(kOutDir) + "/run-" + std::to_string(::getpid());
  std::error_code ec;
  fs::create_directories(work_dir_, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", work_dir_.c_str(),
                 ec.message().c_str());
    return 2;
  }
  // Relative AF_UNIX paths: the checkout may sit deeper than sun_path holds.
  socket_ = work_dir_ + "/server.sock";
  manifest_ = work_dir_ + "/lake.laks";
  worker_prefix_ = work_dir_ + "/worker";

  corpus_ = MakeCorpus(w_);
  order_ = Rng(o_.seed, /*stream=*/8)
               .SampleIndices(corpus_.query_file.size(),
                              corpus_.query_file.size());
  Progress("corpus of " + std::to_string(corpus_.files.size()) + " tables");
  std::vector<double> setups;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    double seconds = 0;
    if (Status s = Setup(&seconds); !s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      Teardown();
      fs::remove_all(work_dir_, ec);
      return 2;
    }
    setups.push_back(seconds);
    Progress("set-up");
  }

  if (Status s = ConnectClients(); !s.ok()) {
    Fail("connect: " + s.ToString());
  } else if (Status s = WarmUp(); !s.ok()) {
    Fail("warm-up query: " + s.ToString());
  } else {
    Progress("warm-up");
    Rounds();
    Progress("rounds");

    // Before the checks build a second index (the distributed twin), which
    // the harness alone holds.
    driver_rss_mb_ = PeakRssMb(RUSAGE_SELF);
    CheckAndScore();
    Progress("checks");
    if (o_.trace) {
      Replay();
      Progress("replays");
    }
  }
  if (answer_mismatches_.load() > 0) {
    Fail(std::to_string(answer_mismatches_.load()) +
         " repeated answers differ from the first answer to the query");
  }
  if (embed_mismatches_.load() > 0) {
    Fail(std::to_string(embed_mismatches_.load()) +
         " tables embedded differently from their set-up embedding");
  }
  if (o_.trace) LayerMetrics();
  Teardown();  // reaps the shard workers before their RSS is read
  fs::remove_all(work_dir_, ec);

  std::vector<double> latency_ms;
  for (int64_t ns : latency_) {
    // A failed query misses every latency bound.
    latency_ms.push_back(ns == kFailedNs ? std::numeric_limits<double>::max()
                                         : Ms(ns));
  }
  Add("setup_s", Median(setups), "s", Kind::kEndToEnd);
  // All over every open-loop arrival. p99 is printed but not bounded: host
  // stalls of tens of ms decide it, and it does not repeat within 25% on a
  // shared box (README.md, "Latency percentiles").
  Add("p50_ms", Percentile(latency_ms, 0.50), "ms", Kind::kEndToEnd);
  Add("p90_ms", Percentile(latency_ms, 0.90), "ms", Kind::kEndToEnd);
  Add("p99_ms", Percentile(latency_ms, 0.99), "ms", Kind::kInfo);
  // Over all the run's closed-loop (writer) slices together.
  Add("qps", closed_done_ / std::max(closed_s_, 1e-9), "1/s", Kind::kEndToEnd);
  Add("ingest_tables_per_s", ingest_done_ / std::max(ingest_s_, 1e-9), "1/s",
      Kind::kEndToEnd);
  // The largest shard worker: forked, so it counts the pages it shares
  // with the driver as of the fork.
  Add("rss_mb", driver_rss_mb_ + PeakRssMb(RUSAGE_CHILDREN), "MB",
      Kind::kEndToEnd);
  Add("rss_harness_mb", harness_rss_mb_, "MB", Kind::kInfo);
  Add("open_samples", static_cast<double>(latency_.size()), "count",
      Kind::kInfo);
  const uint64_t attempted = attempted_.load();
  const uint64_t failed = failed_.load();
  Add("error_rate",
      static_cast<double>(failed) /
          static_cast<double>(std::max<uint64_t>(1, attempted)),
      "frac", Kind::kInfo);
  if (o_.trace) {
    const std::string path =
        std::string(kOutDir) + "/" + w_.name + ".trace.json";
    if (Status s = WriteChromeTrace(path); !s.ok()) Fail(s.ToString());
  }
  if (failed > 0) Fail(std::to_string(failed) + " operations failed");
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", w_.name, f.c_str());
  }
  PrintResult();
  return failures_.empty() ? 0 : 1;
}

// Every metric as "workload name value unit", then the result line with
// exactly the metrics BENCHMARK.json lists for this mode.
void Bench::PrintResult() const {
  const Kind listed = o_.trace ? Kind::kLayer : Kind::kEndToEnd;
  for (const Metric& m : metrics_) {
    std::printf("%s %s %.6g %s\n", w_.name, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failures_.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted_.load()),
              static_cast<unsigned long long>(failed_.load()));
  const char* sep = "";
  for (const Metric& m : metrics_) {
    if (m.kind != listed) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_driver --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke]\n"
               "workloads: wide-query large-lake join-distributed\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
      seconds_given = true;
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      return Usage();
    }
  }
  if (o.smoke && !seconds_given) o.seconds = 1;
  if (!(o.seconds > 0)) return Usage();
  for (const Workload& w : Workloads(o.smoke)) {
    if (o.workload != w.name) continue;
    Bench bench(w, o);
    return bench.Run();
  }
  return Usage();
}
