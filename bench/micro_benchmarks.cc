// google-benchmark micro-benchmarks for the performance-critical substrates:
// sketching throughput, tokenizer, attention forward/backward, ANN search
// (flat vs HNSW build/query/recall, serial vs pooled batch), and the embed
// stage (MatMul, ColumnEmbeddings) under each kernel level. These are the
// ablation benches for DESIGN.md's design choices (MinHash K,
// tensor-granularity autograd, pluggable VectorIndex backends).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "core/embedder.h"
#include "lakebench/corpus.h"
#include "lakebench/datagen.h"
#include "lakebench/search_benchmarks.h"
#include "nn/attention.h"
#include "nn/ops.h"
#include "search/distance_kernels.h"
#include "search/hnsw.h"
#include "search/knn_index.h"
#include "search/quantizer.h"
#include "search/sharded_lake_index.h"
#include "search/vector_index.h"
#include "server/distributed_lake_index.h"
#include "server/lake_client.h"
#include "server/lake_server.h"
#include "server/shard_worker.h"
#include "sketch/minhash.h"
#include "sketch/table_sketch.h"
#include "text/tokenizer.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace tsfm {
namespace {

constexpr size_t kAnnDim = 64;

// Deterministic random corpus + query set shared by the ANN benchmarks,
// cached so index build cost is paid once per size, not per iteration.
struct AnnFixture {
  std::vector<std::vector<float>> corpus;
  std::vector<std::vector<float>> queries;
  std::unique_ptr<search::VectorIndex> flat;
  std::unique_ptr<search::VectorIndex> hnsw;
};

const AnnFixture& GetAnnFixture(size_t n) {
  static std::map<size_t, AnnFixture> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  AnnFixture& f = cache[n];
  Rng rng(11);
  auto random_vec = [&] {
    std::vector<float> v(kAnnDim);
    for (auto& x : v) x = static_cast<float>(rng.Normal());
    return v;
  };
  f.corpus.reserve(n);
  for (size_t i = 0; i < n; ++i) f.corpus.push_back(random_vec());
  for (size_t q = 0; q < 64; ++q) f.queries.push_back(random_vec());
  search::IndexOptions flat_opt;
  f.flat = search::MakeVectorIndex(kAnnDim, flat_opt);
  search::IndexOptions hnsw_opt;
  hnsw_opt.backend = search::IndexBackend::kHnsw;
  f.hnsw = search::MakeVectorIndex(kAnnDim, hnsw_opt);
  for (size_t i = 0; i < n; ++i) {
    f.flat->Add(i, f.corpus[i]);
    f.hnsw->Add(i, f.corpus[i]);
  }
  return f;
}

// Mean recall@k of `index` against the exact flat scan over the fixture's
// query set.
double AnnRecallAtK(const AnnFixture& f, const search::VectorIndex& index,
                    size_t k) {
  double recall_sum = 0;
  for (const auto& query : f.queries) {
    std::unordered_set<size_t> gold;
    for (const auto& [p, d] : f.flat->Search(query, k)) gold.insert(p);
    size_t hits = 0;
    for (const auto& [p, d] : index.Search(query, k)) hits += gold.count(p);
    recall_sum += static_cast<double>(hits) / static_cast<double>(gold.size());
  }
  return recall_sum / static_cast<double>(f.queries.size());
}

void BM_MinHashUpdate(benchmark::State& state) {
  const size_t num_perm = static_cast<size_t>(state.range(0));
  std::vector<std::string> values;
  for (int i = 0; i < 1000; ++i) values.push_back("value_" + std::to_string(i));
  for (auto _ : state) {
    MinHash mh(num_perm);
    mh.UpdateAll(values);
    benchmark::DoNotOptimize(mh.signature().data());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MinHashUpdate)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_MinHashJaccard(benchmark::State& state) {
  std::vector<std::string> a, b;
  for (int i = 0; i < 500; ++i) a.push_back("a" + std::to_string(i));
  for (int i = 250; i < 750; ++i) b.push_back("a" + std::to_string(i));
  MinHash ma = MinHashOfSet(a, 128), mb = MinHashOfSet(b, 128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ma.EstimateJaccard(mb));
  }
}
BENCHMARK(BM_MinHashJaccard);

void BM_TableSketch(benchmark::State& state) {
  lakebench::DomainCatalog catalog(1, 100);
  Rng rng(2);
  Table table =
      lakebench::GenerateDomainTable(catalog.domain(0), "t", state.range(0), &rng);
  for (auto _ : state) {
    TableSketch sketch = BuildTableSketch(table);
    benchmark::DoNotOptimize(sketch.columns.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableSketch)->Arg(64)->Arg(256)->Arg(1024);

void BM_Tokenizer(benchmark::State& state) {
  text::Vocab vocab = text::Vocab::Build(
      {"residential", "properties", "reference", "area", "population", "street"});
  text::Tokenizer tokenizer(&vocab);
  const std::string input =
      "residential properties reference area population street unknownword";
  for (auto _ : state) {
    auto ids = tokenizer.Encode(input);
    benchmark::DoNotOptimize(ids.data());
  }
}
BENCHMARK(BM_Tokenizer);

void BM_AttentionForward(benchmark::State& state) {
  const size_t seq = static_cast<size_t>(state.range(0));
  const size_t hidden = 64;
  Rng rng(3);
  nn::MultiHeadAttention attn(hidden, 4, 0.0f, &rng);
  nn::Tensor x(seq, hidden);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.UniformDouble(-1, 1));
  }
  for (auto _ : state) {
    nn::Var input = nn::MakeLeaf(x, false);
    nn::Var out = attn.Forward(input, false, &rng);
    benchmark::DoNotOptimize(out->value().data());
  }
}
BENCHMARK(BM_AttentionForward)->Arg(32)->Arg(64)->Arg(128);

void BM_AttentionBackward(benchmark::State& state) {
  const size_t seq = static_cast<size_t>(state.range(0));
  const size_t hidden = 64;
  Rng rng(4);
  nn::MultiHeadAttention attn(hidden, 4, 0.0f, &rng);
  nn::Tensor x(seq, hidden);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.UniformDouble(-1, 1));
  }
  for (auto _ : state) {
    attn.ZeroGrad();
    nn::Var input = nn::MakeLeaf(x, true);
    nn::Var loss = nn::MeanAll(attn.Forward(input, false, &rng));
    nn::Backward(loss);
    benchmark::DoNotOptimize(input->grad().data());
  }
}
BENCHMARK(BM_AttentionBackward)->Arg(32)->Arg(64);

// ----------------------------------------------------- distance kernels
// Scalar vs SIMD kernel throughput at embedding-sized dims, plus the
// one-query-many-rows flat scan both paths feed. The last arg selects the
// kernel set (0 = scalar reference, 1 = BestKernels — AVX2+FMA / NEON
// where available, scalar otherwise; the label names the set measured);
// for BM_DistanceKernel{Dot,L2} the first arg is the dim.
// The acceptance bar is SIMD >= 2x scalar at dim 768 on AVX2 hosts; see
// bench/results/distance_kernels.json for a recorded run.

const search::KernelDispatch& BenchKernels(int64_t simd) {
  return simd != 0 ? search::BestKernels() : search::ScalarKernels();
}

// Two vectors long enough that dim-768 reads stream from cache, offset so
// the pair never aliases.
struct KernelFixture {
  std::vector<float> a, b;
  KernelFixture() {
    Rng rng(23);
    a.resize(4096);
    b.resize(4096);
    for (auto& x : a) x = static_cast<float>(rng.Normal());
    for (auto& x : b) x = static_cast<float>(rng.Normal());
  }
};

void BM_DistanceKernelDot(benchmark::State& state) {
  static const KernelFixture& f = *new KernelFixture();
  const size_t dim = static_cast<size_t>(state.range(0));
  const search::KernelDispatch& kd = BenchKernels(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kd.dot(f.a.data(), f.b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dim));
  state.SetLabel(kd.name);
}
BENCHMARK(BM_DistanceKernelDot)->ArgsProduct({{64, 384, 768}, {0, 1}});

void BM_DistanceKernelL2(benchmark::State& state) {
  static const KernelFixture& f = *new KernelFixture();
  const size_t dim = static_cast<size_t>(state.range(0));
  const search::KernelDispatch& kd = BenchKernels(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kd.l2sq(f.a.data(), f.b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dim));
  state.SetLabel(kd.name);
}
BENCHMARK(BM_DistanceKernelL2)->ArgsProduct({{64, 384, 768}, {0, 1}});

// Single-thread, one-query flat-scan QPS through ScanTopKMulti /
// ScanTopKMultiSq8 — the loop every flat KnnIndex search (and therefore
// every flat lake query) bottoms out in. Second arg picks the row storage
// (0 = float32 rows, 1 = sq8 codes + exact rescore); bytes_per_row makes
// the 4x footprint gap explicit in the report.
struct ScanFixture {
  std::vector<float> rows, norms, query;
  search::Sq8Codec codec;
  std::vector<uint8_t> codes;
  std::vector<float> code_norms;
  ScanFixture(size_t num_rows, size_t dim) {
    Rng rng(29);
    rows.resize(num_rows * dim);
    for (auto& x : rows) x = static_cast<float>(rng.Normal());
    for (size_t r = 0; r < num_rows; ++r) {
      norms.push_back(std::sqrt(search::ScalarKernels().dot(
          rows.data() + r * dim, rows.data() + r * dim, dim)));
    }
    for (size_t i = 0; i < dim; ++i) {
      query.push_back(static_cast<float>(rng.Normal()));
    }
    codec = search::Sq8Codec::Train(rows.data(), num_rows, dim);
    codes.resize(num_rows * dim);
    for (size_t r = 0; r < num_rows; ++r) {
      codec.EncodeRow(rows.data() + r * dim, codes.data() + r * dim);
      code_norms.push_back(codec.DecodedNorm(codes.data() + r * dim));
    }
  }
};

void ScanTopKBody(benchmark::State& state, const ScanFixture& f,
                  size_t num_rows, size_t dim) {
  const search::KernelDispatch& kd = BenchKernels(state.range(0));
  const bool sq8 = state.range(1) != 0;
  for (auto _ : state) {
    auto hits =
        sq8 ? search::ScanTopKMultiSq8(kd, f.query.data(), 1, f.codes.data(),
                                       f.codec, f.code_norms.data(), num_rows,
                                       search::Metric::kCosine, 10)
            : search::ScanTopKMulti(kd, f.query.data(), 1, f.rows.data(),
                                    f.norms.data(), num_rows, dim,
                                    search::Metric::kCosine, 10);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(num_rows));
  state.SetLabel(std::string(kd.name) + (sq8 ? "/sq8" : "/float32"));
  // sq8 rows store dim bytes of codes plus the cached decoded norm; float
  // rows store dim floats plus the cached norm.
  state.counters["bytes_per_row"] =
      static_cast<double>(sq8 ? dim + sizeof(float)
                              : dim * sizeof(float) + sizeof(float));
}

void BM_FlatScanTopK(benchmark::State& state) {
  constexpr size_t kRows = 512, kDim = 768;
  static const ScanFixture& f = *new ScanFixture(kRows, kDim);
  ScanTopKBody(state, f, kRows, kDim);
}
BENCHMARK(BM_FlatScanTopK)->ArgsProduct({{0, 1}, {0, 1}});

// The acceptance-bar configuration: a corpus big enough that float rows
// (192 MB at 65536 x 768) stream from memory while sq8 codes (48 MB) sit
// much closer to cache — the 4x bandwidth saving is the speedup source, so
// a small corpus would understate it. Excluded from the bench_smoke ctest
// (fixture build alone dwarfs the smoke budget).
void BM_FlatScanTopKLarge(benchmark::State& state) {
  constexpr size_t kRows = 65536, kDim = 768;
  static const ScanFixture& f = *new ScanFixture(kRows, kDim);
  ScanTopKBody(state, f, kRows, kDim);
}
BENCHMARK(BM_FlatScanTopKLarge)->ArgsProduct({{0, 1}, {0, 1}});

// Multi-query mini-GEMM scan: ONE pass over the rows answers the whole
// query block, so row loads amortize across queries instead of re-streaming
// per query. items_processed counts (query, row) pairs, so items/sec is
// directly comparable across num_queries: the gap between num_queries=1
// and 8 at the same kernel/storage is the batching win. Args:
// {kernel set, storage, num_queries}.
void BM_MultiScanTopK(benchmark::State& state) {
  constexpr size_t kRows = 4096, kDim = 768, kMaxQueries = 8;
  static const ScanFixture& f = *new ScanFixture(kRows, kDim);
  static const std::vector<float>& queries = *[] {
    Rng rng(31);
    auto* q = new std::vector<float>(kMaxQueries * kDim);
    for (auto& x : *q) x = static_cast<float>(rng.Normal());
    return q;
  }();
  const search::KernelDispatch& kd = BenchKernels(state.range(0));
  const bool sq8 = state.range(1) != 0;
  const size_t nq = static_cast<size_t>(state.range(2));
  for (auto _ : state) {
    auto hits =
        sq8 ? search::ScanTopKMultiSq8(kd, queries.data(), nq, f.codes.data(),
                                       f.codec, f.code_norms.data(), kRows,
                                       search::Metric::kCosine, 10)
            : search::ScanTopKMulti(kd, queries.data(), nq, f.rows.data(),
                                    f.norms.data(), kRows, kDim,
                                    search::Metric::kCosine, 10);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nq * kRows));
  state.SetLabel(std::string(kd.name) + (sq8 ? "/sq8" : "/float32"));
  state.counters["num_queries"] = static_cast<double>(nq);
}
BENCHMARK(BM_MultiScanTopK)->ArgsProduct({{0, 1}, {0, 1}, {1, 4, 8}});

// --------------------------------------------------------- ANN backends
// Flat-vs-HNSW comparison: build time, single-query QPS (with recall@10 of
// the approximate backend against the exact scan), and multi-query batch
// throughput serial vs fanned out over the ThreadPool.

void BM_AnnBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto backend = static_cast<search::IndexBackend>(state.range(1));
  const AnnFixture& f = GetAnnFixture(n);
  search::IndexOptions options;
  options.backend = backend;
  for (auto _ : state) {
    auto index = search::MakeVectorIndex(kAnnDim, options);
    for (size_t i = 0; i < n; ++i) index->Add(i, f.corpus[i]);
    benchmark::DoNotOptimize(index->size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AnnBuild)
    ->ArgsProduct({{1000, 10000},
                   {static_cast<long>(search::IndexBackend::kFlat),
                    static_cast<long>(search::IndexBackend::kHnsw)}});

void BM_KnnSearch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const AnnFixture& f = GetAnnFixture(n);
  size_t q = 0;
  for (auto _ : state) {
    auto hits = f.flat->Search(f.queries[q++ % f.queries.size()], 10);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KnnSearch)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_HnswSearch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const AnnFixture& f = GetAnnFixture(n);
  size_t q = 0;
  for (auto _ : state) {
    auto hits = f.hnsw->Search(f.queries[q++ % f.queries.size()], 10);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["recall@10"] = AnnRecallAtK(f, *f.hnsw, 10);
}
BENCHMARK(BM_HnswSearch)->Arg(1000)->Arg(10000)->Arg(50000);

// The seed answered benchmark queries one at a time on one thread; the batch
// path fans the same query set out over the ThreadPool. Compare these two
// at the same corpus size for the multi-query throughput win.
void BM_AnnBatchSearchSerial(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto backend = static_cast<search::IndexBackend>(state.range(1));
  const AnnFixture& f = GetAnnFixture(n);
  const search::VectorIndex& index =
      backend == search::IndexBackend::kHnsw ? *f.hnsw : *f.flat;
  for (auto _ : state) {
    auto results = index.SearchBatch(f.queries, 10, /*pool=*/nullptr);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * f.queries.size());
}
BENCHMARK(BM_AnnBatchSearchSerial)
    ->ArgsProduct({{1000, 10000},
                   {static_cast<long>(search::IndexBackend::kFlat),
                    static_cast<long>(search::IndexBackend::kHnsw)}});

void BM_AnnBatchSearchParallel(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto backend = static_cast<search::IndexBackend>(state.range(1));
  const AnnFixture& f = GetAnnFixture(n);
  const search::VectorIndex& index =
      backend == search::IndexBackend::kHnsw ? *f.hnsw : *f.flat;
  ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  for (auto _ : state) {
    auto results = index.SearchBatch(f.queries, 10, &pool);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * f.queries.size());
  state.counters["threads"] = static_cast<double>(pool.num_threads());
}
BENCHMARK(BM_AnnBatchSearchParallel)
    ->ArgsProduct({{1000, 10000},
                   {static_cast<long>(search::IndexBackend::kFlat),
                    static_cast<long>(search::IndexBackend::kHnsw)}})
    ->UseRealTime();  // the work happens on pool threads, not the main one

// ------------------------------------------------------- Sharded lake index
// Sharded-vs-flat comparison on the full LakeIndex stack: build time and
// batch query throughput at 1 / 2 / 4 shards over the same corpus. Shard
// count 1 is the unsharded baseline; flat-backend results are identical at
// every shard count, so these isolate the scatter/gather overhead and the
// per-shard build-time win.

struct ShardedLakeFixture {
  std::vector<std::vector<std::vector<float>>> tables;  // per table: columns
  std::vector<std::vector<float>> join_queries;
  std::vector<std::vector<std::vector<float>>> union_queries;
};

constexpr size_t kLakeDim = 32;
constexpr size_t kLakeTables = 1000;

const ShardedLakeFixture& GetShardedLakeFixture() {
  static ShardedLakeFixture* fixture = [] {
    auto* f = new ShardedLakeFixture();
    Rng rng(13);
    auto random_vec = [&] {
      std::vector<float> v(kLakeDim);
      for (auto& x : v) x = static_cast<float>(rng.Normal());
      return v;
    };
    f->tables.reserve(kLakeTables);
    for (size_t t = 0; t < kLakeTables; ++t) {
      std::vector<std::vector<float>> cols(1 + t % 3);
      for (auto& col : cols) col = random_vec();
      f->tables.push_back(std::move(cols));
    }
    for (size_t q = 0; q < 32; ++q) {
      f->join_queries.push_back(random_vec());
      f->union_queries.push_back({random_vec(), random_vec()});
    }
    return f;
  }();
  return *fixture;
}

search::ShardedLakeIndex BuildShardedLake(
    const ShardedLakeFixture& f, size_t shards,
    search::Storage storage = search::Storage::kFloat32) {
  search::IndexOptions options;
  options.storage = storage;
  search::ShardedLakeIndex lake(kLakeDim, shards, options);
  for (size_t t = 0; t < f.tables.size(); ++t) {
    lake.AddTable("table_" + std::to_string(t), f.tables[t]);
  }
  return lake;
}

void BM_ShardedLakeBuild(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  const ShardedLakeFixture& f = GetShardedLakeFixture();
  for (auto _ : state) {
    auto lake = BuildShardedLake(f, shards);
    benchmark::DoNotOptimize(lake.num_tables());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.tables.size()));
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ShardedLakeBuild)->Arg(1)->Arg(2)->Arg(4);

void BM_ShardedLakeBatchQuery(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  const auto storage = state.range(1) != 0 ? search::Storage::kSq8
                                           : search::Storage::kFloat32;
  const ShardedLakeFixture& f = GetShardedLakeFixture();
  ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  auto lake = BuildShardedLake(f, shards, storage);
  for (auto _ : state) {
    auto join = lake.QueryJoinableBatch(f.join_queries, 10, &pool);
    auto join_union = lake.QueryUnionableBatch(f.union_queries, 10, &pool);
    benchmark::DoNotOptimize(join.data());
    benchmark::DoNotOptimize(join_union.data());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(f.join_queries.size() + f.union_queries.size()));
  state.counters["shards"] = static_cast<double>(shards);
  state.SetLabel(storage == search::Storage::kSq8 ? "sq8" : "float32");
}
BENCHMARK(BM_ShardedLakeBatchQuery)
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->UseRealTime();

// Query throughput under churn: a sealed 4-shard lake with 0% / 10% / 50%
// of its tables tombstoned, measured pre-compaction (the scan filters dead
// handles and merges the delta segment every query) and post-compaction
// (dead rows physically gone, handles re-densified). The pre/post gap at a
// given tombstone ratio is what a compaction pass buys; the 0% rows pin
// the no-churn overhead of the epoch locking itself.
void BM_ChurnedQueryQPS(benchmark::State& state) {
  const size_t tombstone_pct = static_cast<size_t>(state.range(0));
  const bool compacted = state.range(1) != 0;
  const ShardedLakeFixture& f = GetShardedLakeFixture();
  ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  auto lake = BuildShardedLake(f, 4);
  lake.Seal();
  // 7919 is coprime with the table count, so the removals walk a
  // permutation — no duplicate ids, spread across every shard.
  const size_t to_remove = kLakeTables * tombstone_pct / 100;
  for (size_t t = 0; t < to_remove; ++t) {
    Status removed =
        lake.RemoveTable("table_" + std::to_string((t * 7919) % kLakeTables));
    if (!removed.ok()) state.SkipWithError(removed.ToString().c_str());
  }
  if (compacted) {
    Status folded = lake.Compact(&pool);
    if (!folded.ok()) state.SkipWithError(folded.ToString().c_str());
  }
  for (auto _ : state) {
    auto join = lake.QueryJoinableBatch(f.join_queries, 10, &pool);
    auto join_union = lake.QueryUnionableBatch(f.union_queries, 10, &pool);
    benchmark::DoNotOptimize(join.data());
    benchmark::DoNotOptimize(join_union.data());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(f.join_queries.size() + f.union_queries.size()));
  state.counters["tombstone_pct"] = static_cast<double>(tombstone_pct);
  state.SetLabel(compacted ? "post-compaction" : "pre-compaction");
}
BENCHMARK(BM_ChurnedQueryQPS)
    ->ArgsProduct({{0, 10, 50}, {0, 1}})
    ->UseRealTime();

// --------------------------------------------------------------- server QPS
// End-to-end query throughput through the socket server at 1 / 4 / 16
// concurrent clients, against a direct-batch-call baseline over the same
// total query count. The gap between the two is the serving overhead
// (framing + socket hops + batcher queue) the coalescing has to amortize.
// The second arg is the batcher's max_batch: 1 disables coalescing (every
// query dispatches alone), the default 64 lets concurrent clients share
// one multi-query scan — the gap at 16 clients is the coalescing win.

constexpr size_t kServerShards = 4;
constexpr size_t kQueriesPerClient = 8;

void BM_ServerQPS(benchmark::State& state) {
  const size_t clients = static_cast<size_t>(state.range(0));
  const size_t max_batch = static_cast<size_t>(state.range(1));
  const ShardedLakeFixture& f = GetShardedLakeFixture();
  server::ServerOptions options;
  options.io_threads = clients;  // no client waits behind another's handler
  options.max_batch = max_batch;
  server::LakeServer lake_server(BuildShardedLake(f, kServerShards), options);
  const std::string socket_path =
      "/tmp/tsfm_bench_server_" + std::to_string(::getpid()) + ".sock";
  if (!lake_server.Start(socket_path).ok()) {
    state.SkipWithError("server start failed");
    return;
  }

  // Persistent pre-connected client threads driven by a generation
  // barrier, so the timed region contains only request round trips — not
  // thread spawns or socket connects, which the direct baseline has no
  // analogue of.
  std::mutex mu;
  std::condition_variable start_cv, done_cv;
  size_t generation = 0, done = 0, ready = 0, connect_failures = 0;
  std::atomic<size_t> query_failures{0};
  bool quit = false;
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      server::LakeClient client;
      const bool connected = client.Connect(socket_path).ok();
      {
        std::unique_lock<std::mutex> lock(mu);
        if (!connected) ++connect_failures;
        if (++ready == clients) done_cv.notify_one();
      }
      size_t seen = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mu);
          start_cv.wait(lock, [&] { return quit || generation != seen; });
          if (quit) return;
          seen = generation;
        }
        for (size_t q = 0; q < kQueriesPerClient; ++q) {
          auto ids = client.QueryJoinable(
              f.join_queries[(c + q) % f.join_queries.size()], 10);
          // A failed round trip returns near-instantly; counting it as
          // served work would inflate the QPS, so invalidate instead.
          if (!ids.ok()) query_failures.fetch_add(1);
          benchmark::DoNotOptimize(ids.ok());
        }
        std::unique_lock<std::mutex> lock(mu);
        if (++done == clients) done_cv.notify_one();
      }
    });
  }

  // A worker without a connection would contribute zero round trips while
  // SetItemsProcessed still counted its share, inflating the reported QPS;
  // invalidate the run instead.
  {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return ready == clients; });
    if (connect_failures > 0) {
      quit = true;
      lock.unlock();
      start_cv.notify_all();
      for (auto& t : workers) t.join();
      state.SkipWithError("client connect failed");
      lake_server.Stop();
      return;
    }
  }

  for (auto _ : state) {
    {
      std::unique_lock<std::mutex> lock(mu);
      done = 0;
      ++generation;
    }
    start_cv.notify_all();
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return done == clients; });
  }

  {
    std::unique_lock<std::mutex> lock(mu);
    quit = true;
  }
  start_cv.notify_all();
  for (auto& t : workers) t.join();
  if (query_failures.load() > 0) {
    state.SkipWithError("query round trips failed mid-benchmark");
  } else {
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(clients * kQueriesPerClient));
  }
  state.counters["clients"] = static_cast<double>(clients);
  state.counters["max_batch"] = static_cast<double>(max_batch);
  // How much coalescing actually happened: the mean dispatched batch size
  // over the whole run (1.0 means every query went to the backend alone).
  server::LakeClient stats_client;
  if (stats_client.Connect(socket_path).ok()) {
    if (auto stats = stats_client.Stats(); stats.ok() &&
                                           stats.value().batches > 0) {
      state.counters["avg_batch"] =
          static_cast<double>(stats.value().requests) /
          static_cast<double>(stats.value().batches);
    }
  }
  lake_server.Stop();
}
BENCHMARK(BM_ServerQPS)->ArgsProduct({{1, 4, 16}, {1, 64}})->UseRealTime();

void BM_ServerQPSDirectBaseline(benchmark::State& state) {
  const size_t clients = static_cast<size_t>(state.range(0));
  const ShardedLakeFixture& f = GetShardedLakeFixture();
  auto lake = BuildShardedLake(f, kServerShards);
  ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  // The same queries BM_ServerQPS issues at this client count, as one
  // in-process batch call: the upper bound the server is measured against.
  std::vector<std::vector<float>> queries;
  for (size_t c = 0; c < clients; ++c) {
    for (size_t q = 0; q < kQueriesPerClient; ++q) {
      queries.push_back(f.join_queries[(c + q) % f.join_queries.size()]);
    }
  }
  for (auto _ : state) {
    auto ranked = lake.QueryJoinableBatch(queries, 10, &pool);
    benchmark::DoNotOptimize(ranked.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
  state.counters["clients"] = static_cast<double>(clients);
}
BENCHMARK(BM_ServerQPSDirectBaseline)->Arg(1)->Arg(4)->Arg(16)->UseRealTime();

// ---------------------------------------------------------- distributed QPS
// The same batch workload BM_ShardedLakeBatchQuery answers in-process, but
// scattered over 1 / 2 / 4 lake_shard_worker *processes* through a
// DistributedLakeIndex coordinator. Results are identical at every worker
// count (the distributed parity suite proves it bit-exactly), so the gap
// against BM_ShardedLakeBatchQuery at the same shard count is precisely the
// cost of crossing the process boundary: framing, socket hops, and the
// coordinator's remap/merge.

void BM_DistributedQPS(benchmark::State& state) {
  const size_t workers = static_cast<size_t>(state.range(0));
  const ShardedLakeFixture& f = GetShardedLakeFixture();
  auto lake = BuildShardedLake(f, workers);
  const std::string manifest = "/tmp/tsfm_bench_dist_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(workers) + ".laks";
  if (!lake.Save(manifest).ok()) {
    state.SkipWithError("manifest save failed");
    return;
  }

  auto unlink_index_files = [&] {
    for (size_t s = 0; s < workers; ++s) {
      ::unlink((manifest + ".shard-" + std::to_string(s)).c_str());
    }
    ::unlink(manifest.c_str());
  };
  // Fork the worker fleet before this benchmark grows pool threads; the
  // fleet stops its workers and unlinks its sockets on destruction. The
  // socket prefix must differ from the manifest path — worker sockets are
  // "<prefix>.shard-s" and binding one must not clobber a shard *file* of
  // the same name.
  auto fleet = server::ShardWorkerFleet::Spawn(manifest, manifest + ".sock");
  if (!fleet.ok()) {
    unlink_index_files();
    state.SkipWithError("worker spawn failed");
    return;
  }
  auto coordinator =
      server::DistributedLakeIndex::Connect(manifest, fleet.value().sockets());
  if (!coordinator.ok()) {
    unlink_index_files();
    state.SkipWithError("coordinator connect failed");
    return;
  }

  ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  bool failed = false;
  for (auto _ : state) {
    auto join =
        coordinator.value().QueryJoinableBatch(f.join_queries, 10, &pool);
    auto join_union =
        coordinator.value().QueryUnionableBatch(f.union_queries, 10, &pool);
    if (!join.ok() || !join_union.ok()) {
      failed = true;
      break;
    }
    benchmark::DoNotOptimize(join.value().data());
    benchmark::DoNotOptimize(join_union.value().data());
  }
  if (failed) {
    state.SkipWithError("distributed query failed mid-benchmark");
  } else {
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(f.join_queries.size() + f.union_queries.size()));
  }
  state.counters["workers"] = static_cast<double>(workers);
  fleet.value().StopAll();
  unlink_index_files();
}
BENCHMARK(BM_DistributedQPS)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// ------------------------------------------------------------ embed stage
// The last arg selects the process-wide kernel level (util/simd.h) that
// nn::MatMul dispatches on: 0 = the automatic selection, 1 = scalar. The
// label names the level measured. See bench/results/embed.json for a
// recorded run.

class PinSimdLevel {
 public:
  PinSimdLevel(benchmark::State& state, int64_t scalar) {
    internal::OverrideSimdLevelForTest(
        scalar != 0 ? std::optional(SimdLevel::kScalar) : std::nullopt);
    state.SetLabel(SimdLevelName(ActiveSimdLevel()));
  }
  ~PinSimdLevel() { internal::OverrideSimdLevelForTest(std::nullopt); }
  PinSimdLevel(const PinSimdLevel&) = delete;
  PinSimdLevel& operator=(const PinSimdLevel&) = delete;
};

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const PinSimdLevel pin(state, state.range(1));
  Rng rng(6);
  nn::Tensor a(n, n), b(n, n);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.UniformDouble(-1, 1));
    b[i] = static_cast<float>(rng.UniformDouble(-1, 1));
  }
  for (auto _ : state) {
    nn::Var va = nn::MakeLeaf(a, false);
    nn::Var vb = nn::MakeLeaf(b, false);
    nn::Var c = nn::MatMul(va, vb);
    benchmark::DoNotOptimize(c->value().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->ArgsProduct({{32, 64, 128}, {0, 1}});

// The end-to-end benchmark's model stack (bench/e2e): hidden 32, 2 layers,
// 2 heads, ffn 64, 16 MinHash slots, seeded and untrained, with the
// sketches of one generator join table and one 32-row union table.
// Members point into each other: construct in place, never move.
struct EmbedFixture {
  static core::TabSketchFMConfig Config(size_t vocab_size) {
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
  static text::Vocab Vocab() {
    lakebench::CorpusScale scale;
    scale.num_tables = 12;
    scale.augmentations = 0;
    return lakebench::BuildVocabFromTables(
        lakebench::MakePretrainCorpus(lakebench::DomainCatalog(99, 100), scale,
                                      99),
        /*include_cells=*/false);
  }

  EmbedFixture()
      : vocab(Vocab()),
        config(Config(vocab.size())),
        rng(1),
        model(config, &rng),
        tokenizer(&vocab),
        encoder(&config, &tokenizer),
        embedder(&model, &encoder) {
    SketchOptions options;
    options.num_perm = config.num_perm;
    lakebench::WikiJoinScale join;
    join.num_tables = 20;
    join.num_queries = 2;
    sketches.push_back(BuildTableSketch(
        lakebench::MakeWikiJoinSearch(join, 21).tables[0], options));
    lakebench::UnionSearchScale scale;
    scale.num_seeds = 2;
    scale.variants_per_seed = 2;
    scale.num_queries = 1;
    scale.rows = 32;
    sketches.push_back(BuildTableSketch(
        lakebench::MakeUnionSearch(lakebench::DomainCatalog(42, 200), scale,
                                   21, "lake")
            .tables[0],
        options));
  }

  text::Vocab vocab;
  core::TabSketchFMConfig config;
  Rng rng;
  core::TabSketchFM model;
  text::Tokenizer tokenizer;
  core::InputEncoder encoder;
  core::Embedder embedder;
  std::vector<TableSketch> sketches;
};

// The embed stage of every query and every lake write: one join and one
// union table through Embedder::ColumnEmbeddings per iteration.
void BM_ColumnEmbeddings(benchmark::State& state) {
  static const EmbedFixture* const fixture = new EmbedFixture();
  const PinSimdLevel pin(state, state.range(0));
  for (auto _ : state) {
    for (const TableSketch& sketch : fixture->sketches) {
      auto columns = fixture->embedder.ColumnEmbeddings(sketch);
      benchmark::DoNotOptimize(columns.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture->sketches.size()));
}
BENCHMARK(BM_ColumnEmbeddings)->Arg(0)->Arg(1);

}  // namespace
}  // namespace tsfm

// BENCHMARK_MAIN(), plus a context line recording how *this* binary was
// compiled. The stock "library_build_type" JSON field describes the
// google-benchmark shared library (which distro packages ship
// self-reporting debug), not the code under test; scripts/record_bench.sh
// keys off tsfm_build_type instead.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("tsfm_build_type", "release");
#else
  benchmark::AddCustomContext("tsfm_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
