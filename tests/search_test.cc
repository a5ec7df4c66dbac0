#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "lakebench/search_benchmarks.h"
#include "search/distance_kernels.h"
#include "search/knn_index.h"
#include "search/metrics.h"
#include "search/pipeline.h"
#include "search/sharded_lake_index.h"
#include "search/table_ranker.h"
#include "search/vector_index.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tsfm::search {
namespace {

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, WeightedF1PerfectAndWorst) {
  std::vector<int> t = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(WeightedF1(t, t, 2), 1.0);
  std::vector<int> wrong = {1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(WeightedF1(t, wrong, 2), 0.0);
}

TEST(MetricsTest, WeightedF1HandlesSkew) {
  // 3:1 skew; predicting all-majority gives the weighted F1 of sklearn.
  std::vector<int> t = {0, 0, 0, 1};
  std::vector<int> p = {0, 0, 0, 0};
  // class0: P=3/4, R=1, F1=6/7, weight 3/4; class1: F1=0, weight 1/4.
  EXPECT_NEAR(WeightedF1(t, p, 2), (6.0 / 7.0) * 0.75, 1e-9);
}

TEST(MetricsTest, R2KnownValues) {
  std::vector<float> t = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(R2Score(t, t), 1.0);
  std::vector<float> mean_pred = {2.5, 2.5, 2.5, 2.5};
  EXPECT_NEAR(R2Score(t, mean_pred), 0.0, 1e-9);
  std::vector<float> bad = {4, 3, 2, 1};
  EXPECT_LT(R2Score(t, bad), 0.0);
}

TEST(MetricsTest, MultiLabelF1) {
  std::vector<std::vector<float>> t = {{1, 0, 1}, {0, 1, 0}};
  EXPECT_DOUBLE_EQ(MultiLabelF1(t, t), 1.0);
  std::vector<std::vector<float>> half = {{1, 0, 0}, {0, 1, 0}};
  // tp=2, fn=1, fp=0 -> P=1, R=2/3, F1=0.8.
  EXPECT_NEAR(MultiLabelF1(t, half), 0.8, 1e-9);
}

TEST(MetricsTest, MetricsAtKBasics) {
  std::vector<size_t> ranked = {5, 3, 9, 1};
  std::vector<size_t> gold = {3, 9};
  RankedMetrics m = MetricsAtK(ranked, gold, 2);
  EXPECT_DOUBLE_EQ(m.precision, 0.5);  // {5,3}: one hit of 2
  EXPECT_DOUBLE_EQ(m.recall, 0.5);
  m = MetricsAtK(ranked, gold, 3);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_NEAR(m.f1, 2 * (2.0 / 3) * 1.0 / ((2.0 / 3) + 1.0), 1e-9);
}

TEST(MetricsTest, EvaluateSearchAveragesAndSkipsEmptyGold) {
  std::vector<std::vector<size_t>> ranked = {{1, 2}, {9, 8}};
  std::vector<std::vector<size_t>> gold = {{1}, {}};  // 2nd query skipped
  SearchReport r = EvaluateSearch(ranked, gold, 2);
  EXPECT_DOUBLE_EQ(r.precision_at_k[0], 1.0);
  EXPECT_DOUBLE_EQ(r.recall_at_k[0], 1.0);
  EXPECT_GT(r.mean_f1, 0.5);
}

// -------------------------------------------------------------- KnnIndex

TEST(KnnIndexTest, CosineNearestFirst) {
  KnnIndex index(2, Metric::kCosine);
  index.Add(0, {1, 0});
  index.Add(1, {0, 1});
  index.Add(2, {0.9f, 0.1f});
  auto hits = index.Search({1, 0}, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].first, 0u);
  EXPECT_EQ(hits[1].first, 2u);
  EXPECT_NEAR(hits[0].second, 0.0, 1e-6);
}

TEST(KnnIndexTest, L2Metric) {
  KnnIndex index(2, Metric::kL2);
  index.Add(10, {0, 0});
  index.Add(11, {3, 4});
  auto hits = index.Search({0, 1}, 2);
  EXPECT_EQ(hits[0].first, 10u);
  EXPECT_NEAR(hits[0].second, 1.0, 1e-6);
  EXPECT_NEAR(hits[1].second, std::sqrt(9 + 9), 1e-5);
}

TEST(KnnIndexTest, ZeroVectorGetsMaxCosineDistance) {
  // A zero-norm row has no direction: it must score kMaxCosineDistance and
  // rank strictly after every row that has one — the old denom guard gave
  // it distance 1.0, silently tying it with genuinely orthogonal rows.
  KnnIndex index(2, Metric::kCosine);
  index.Add(0, {0, 0});
  index.Add(1, {1, 1});
  index.Add(2, {-1, 1});  // orthogonal to the query: distance exactly 1
  auto hits = index.Search({1, 1}, 3);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].first, 1u);
  EXPECT_EQ(hits[1].first, 2u);
  EXPECT_NEAR(hits[1].second, 1.0, 1e-6);
  EXPECT_EQ(hits[2].first, 0u);
  EXPECT_EQ(hits[2].second, kMaxCosineDistance);
}

TEST(KnnIndexTest, ZeroQueryRanksEverythingAtMaxCosineDistance) {
  KnnIndex index(2, Metric::kCosine);
  index.Add(0, {1, 0});
  index.Add(1, {0, 1});
  auto hits = index.Search({0, 0}, 2);
  ASSERT_EQ(hits.size(), 2u);
  // Cosine is undefined against a zero query; results stay deterministic
  // (row order) with the max distance instead of fake ties at 1.0.
  EXPECT_EQ(hits[0].first, 0u);
  EXPECT_EQ(hits[0].second, kMaxCosineDistance);
  EXPECT_EQ(hits[1].second, kMaxCosineDistance);
}

TEST(KnnIndexTest, KLargerThanIndex) {
  KnnIndex index(1, Metric::kCosine);
  index.Add(0, {1});
  auto hits = index.Search({1}, 10);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(KnnIndexTest, DegenerateQueriesReturnEmpty) {
  KnnIndex index(2, Metric::kCosine);
  index.Add(0, {1, 0});
  EXPECT_TRUE(index.Search({1, 0}, 0).empty());        // k == 0
  EXPECT_TRUE(index.Search({1, 0, 0}, 3).empty());     // dim mismatch
  EXPECT_TRUE(index.Search({}, 3).empty());            // empty query
  KnnIndex empty(2);
  EXPECT_TRUE(empty.Search({1, 0}, 3).empty());        // empty index
}

TEST(KnnIndexTest, HeapTopKMatchesFullSortOrder) {
  Rng rng(9);
  KnnIndex index(4, Metric::kCosine);
  for (size_t i = 0; i < 200; ++i) {
    std::vector<float> v(4);
    for (auto& x : v) x = static_cast<float>(rng.Normal());
    index.Add(i, v);
  }
  std::vector<float> q = {1, 0, -1, 0.5f};
  // Retrieving everything gives the reference ranking; the top-k heap must
  // return its prefix, with deterministic tie order.
  auto all = index.Search(q, 200);
  ASSERT_EQ(all.size(), 200u);
  for (size_t k : {1u, 7u, 50u}) {
    auto topk = index.Search(q, k);
    ASSERT_EQ(topk.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(topk[i].first, all[i].first);
      EXPECT_FLOAT_EQ(topk[i].second, all[i].second);
    }
  }
}

// ------------------------------------------------------------ VectorIndex

TEST(VectorIndexTest, FactoryMakesRequestedBackend) {
  IndexOptions flat;
  auto flat_index = MakeVectorIndex(3, flat);
  EXPECT_EQ(flat_index->backend(), IndexBackend::kFlat);
  EXPECT_EQ(flat_index->dim(), 3u);
  IndexOptions hnsw;
  hnsw.backend = IndexBackend::kHnsw;
  auto hnsw_index = MakeVectorIndex(3, hnsw);
  EXPECT_EQ(hnsw_index->backend(), IndexBackend::kHnsw);
  EXPECT_EQ(hnsw_index->metric(), Metric::kCosine);
}

TEST(VectorIndexTest, SearchBatchMatchesSerialForBothBackends) {
  Rng rng(13);
  std::vector<std::vector<float>> corpus, queries;
  for (size_t i = 0; i < 150; ++i) {
    std::vector<float> v(8);
    for (auto& x : v) x = static_cast<float>(rng.Normal());
    corpus.push_back(v);
  }
  for (size_t q = 0; q < 9; ++q) {
    std::vector<float> v(8);
    for (auto& x : v) x = static_cast<float>(rng.Normal());
    queries.push_back(v);
  }
  ThreadPool pool(3);
  for (auto backend : {IndexBackend::kFlat, IndexBackend::kHnsw}) {
    IndexOptions options;
    options.backend = backend;
    auto index = MakeVectorIndex(8, options);
    for (size_t i = 0; i < corpus.size(); ++i) index->Add(i, corpus[i]);
    auto parallel = index->SearchBatch(queries, 5, &pool);
    ASSERT_EQ(parallel.size(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(parallel[q], index->Search(queries[q], 5));
    }
  }
}

// ------------------------------------------------------------ TableRanker
// The Fig 6 ranking runs in the lake coordinator, so these rank through a
// one-shard ShardedLakeIndex; table t is added as id "t" and gets handle
// t in insertion order.

ShardedLakeIndex OneShardLake(
    size_t dim, const std::vector<std::vector<std::vector<float>>>& tables,
    const IndexOptions& options = {}) {
  ShardedLakeIndex lake(dim, 1, options);
  for (size_t t = 0; t < tables.size(); ++t) {
    lake.AddTable(std::to_string(t), tables[t]);
  }
  return lake;
}

TEST(TableRankerTest, Rank1CountsMatchedColumns) {
  // Table 0 matches both query columns, table 1 only one.
  const auto lake =
      OneShardLake(2, {{{1, 0}, {0, 1}}, {{1, 0}, {0.7f, 0.7f}}});
  auto ranked =
      lake.RankUnionableBatch({{{1, 0}, {0, 1}}}, 2, {/*exclude=*/999})[0];
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], 0u);
}

TEST(TableRankerTest, ExcludesQueryTable) {
  const auto lake = OneShardLake(2, {{{1, 0}}, {{1, 0}}});
  auto ranked = lake.RankUnionableBatch({{{1, 0}}}, 5, {/*exclude=*/0})[0];
  for (size_t t : ranked) EXPECT_NE(t, 0u);
}

TEST(TableRankerTest, ColumnModeRanksByNearestColumn) {
  const auto lake = OneShardLake(2, {{{1, 0}, {0, 1}}, {{0.6f, 0.8f}}});
  auto ranked = lake.RankUnionableBatch({{{1, 0}}}, 5, {99})[0];
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], 0u);
}

TEST(TableRankerTest, BatchRankingMatchesSerial) {
  Rng rng(21);
  std::vector<std::vector<std::vector<float>>> tables;
  for (size_t t = 0; t < 20; ++t) {
    std::vector<std::vector<float>> cols(2, std::vector<float>(4));
    for (auto& col : cols) {
      for (auto& x : col) x = static_cast<float>(rng.Normal());
    }
    tables.push_back(cols);
  }
  const auto lake = OneShardLake(4, tables);
  std::vector<std::vector<std::vector<float>>> union_queries;
  std::vector<std::vector<std::vector<float>>> join_queries;
  std::vector<size_t> excludes;
  for (size_t q = 0; q < 6; ++q) {
    std::vector<std::vector<float>> cols(2, std::vector<float>(4));
    for (auto& col : cols) {
      for (auto& x : col) x = static_cast<float>(rng.Normal());
    }
    join_queries.push_back({cols[0]});
    union_queries.push_back(cols);
    excludes.push_back(q);
  }
  ThreadPool pool(3);
  auto union_batch = lake.RankUnionableBatch(union_queries, 5, excludes, &pool);
  auto join_batch = lake.RankUnionableBatch(join_queries, 5, excludes, &pool);
  ASSERT_EQ(union_batch.size(), 6u);
  ASSERT_EQ(join_batch.size(), 6u);
  for (size_t q = 0; q < 6; ++q) {
    EXPECT_EQ(union_batch[q],
              lake.RankUnionableBatch({union_queries[q]}, 5, {excludes[q]})[0]);
    EXPECT_EQ(join_batch[q],
              lake.RankUnionableBatch({join_queries[q]}, 5, {excludes[q]})[0]);
  }
}

TEST(TableRankerTest, HnswBackedIndexRanksLikeFlatOnSeparatedData) {
  // Two well-separated clusters: approximate search must agree with exact.
  IndexOptions options;
  options.backend = IndexBackend::kHnsw;
  const auto lake = OneShardLake(2, {{{1, 0}}, {{0, 1}}}, options);
  auto ranked = lake.RankUnionableBatch({{{0.9f, 0.1f}}}, 5, {SIZE_MAX})[0];
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], 0u);
}

// --------------------------------------------------------------- Pipeline

TEST(PipelineTest, PerfectEmbeddingsGivePerfectSearch) {
  // Synthetic benchmark: 3 groups of 3 tables; "embedding" = one-hot of the
  // group, so search must be perfect.
  lakebench::SearchBenchmark bench;
  bench.name = "synthetic";
  for (int g = 0; g < 3; ++g) {
    for (int m = 0; m < 3; ++m) {
      Table t("g" + std::to_string(g) + "m" + std::to_string(m), "d");
      t.AddColumn("c", {"x"});
      bench.tables.push_back(std::move(t));
    }
  }
  for (int g = 0; g < 3; ++g) {
    lakebench::SearchQuery q;
    q.table_index = static_cast<size_t>(g * 3);
    bench.queries.push_back(q);
    bench.gold.push_back({static_cast<size_t>(g * 3 + 1),
                          static_cast<size_t>(g * 3 + 2)});
  }
  auto embed = [](size_t t) {
    std::vector<float> v(3, 0.0f);
    v[t / 3] = 1.0f;
    return std::vector<std::vector<float>>{v};
  };
  // The batch-parallel pipeline must be exact regardless of backend or
  // fan-out width on this separable corpus.
  for (auto backend : {IndexBackend::kFlat, IndexBackend::kHnsw}) {
    SearchRunOptions run;
    run.index.backend = backend;
    run.num_threads = 3;
    SearchReport report = EvaluateEmbeddingSearch(bench, embed, 2, run);
    EXPECT_DOUBLE_EQ(report.recall_at_k[1], 1.0);
    EXPECT_DOUBLE_EQ(report.precision_at_k[1], 1.0);
  }
}

TEST(PipelineTest, ShardedRunSearchMatchesUnsharded) {
  // The --shards knob routes RunSearch through ShardedLakeIndex; with the
  // exact flat backend the ranked lists must be identical at any shard
  // count, including the exclude-own-table handling.
  lakebench::SearchBenchmark bench;
  bench.name = "sharded-parity";
  for (int i = 0; i < 40; ++i) {
    Table t("t" + std::to_string(i), "d");
    t.AddColumn("c", {"x"});
    bench.tables.push_back(std::move(t));
  }
  for (size_t q = 0; q < 8; ++q) {
    lakebench::SearchQuery query;
    query.table_index = q * 4;
    query.column_index = q % 2 == 0 ? 0 : -1;  // mix join and union queries
    bench.queries.push_back(query);
    bench.gold.push_back({q * 4 + 1});
  }
  Rng rng(7);
  std::vector<std::vector<std::vector<float>>> embs(40);
  for (auto& e : embs) {
    e = {{static_cast<float>(rng.Normal()), static_cast<float>(rng.Normal()),
          static_cast<float>(rng.Normal()), static_cast<float>(rng.Normal())}};
  }
  auto embed = [&](size_t t) { return embs[t]; };

  SearchRunOptions unsharded;
  unsharded.num_threads = 2;
  auto reference = RunSearch(bench, embed, 5, unsharded);
  for (size_t shards : {size_t{2}, size_t{4}}) {
    SearchRunOptions run;
    run.num_threads = 2;
    run.shards = shards;
    EXPECT_EQ(RunSearch(bench, embed, 5, run), reference) << shards << " shards";
  }
}

TEST(PipelineTest, RunSearchMatchesExactOracle) {
  // RunSearch against a brute-force oracle: every (query column, corpus
  // column) distance from the scalar pairwise kernels, each query column's
  // top 3k by (distance, table, column), then the Fig 6 ranking without
  // the query table. The scalar multi kernels compute each pair with the
  // same pairwise call, so equality is exact at every shard count. An odd
  // dim leaves a tail on every row; a zero-norm column is also a join
  // query, so its cosine ranking is all ties at kMaxCosineDistance.
  constexpr size_t kDim = 19, kTables = 60, k = 5;
  Rng rng(97);
  lakebench::SearchBenchmark bench;
  bench.name = "exact-oracle";
  std::vector<std::vector<std::vector<float>>> embs(kTables);
  for (size_t t = 0; t < kTables; ++t) {
    Table table("t" + std::to_string(t), "d");
    table.AddColumn("c", {"x"});
    bench.tables.push_back(std::move(table));
    embs[t].resize(static_cast<size_t>(rng.UniformInt(1, 4)));
    for (auto& col : embs[t]) col = testutil::RandomVec(&rng, kDim);
  }
  embs[10][0].assign(kDim, 0.0f);
  for (size_t q = 0; q < 12; ++q) {
    lakebench::SearchQuery query;
    query.table_index = q * 5;
    query.column_index = q % 2 == 0 ? 0 : -1;  // join, union, join, ...
    bench.queries.push_back(query);
    bench.gold.push_back({q * 5 + 1});
  }
  auto embed = [&](size_t t) { return embs[t]; };

  const KernelDispatch& kd = ScalarKernels();
  internal::OverrideKernelsForTest(&kd);
  using Hits = std::vector<ColumnEmbeddingIndex::ColumnHit>;
  auto top_hits = [&](const std::vector<float>& query, Metric metric) {
    const float query_norm = std::sqrt(kd.dot(query.data(), query.data(), kDim));
    Hits hits;
    for (size_t t = 0; t < kTables; ++t) {
      for (size_t c = 0; c < embs[t].size(); ++c) {
        const float* col = embs[t][c].data();
        const float dist =
            metric == Metric::kCosine
                ? CosineDistanceFromDot(kd.dot(query.data(), col, kDim),
                                        std::sqrt(kd.dot(col, col, kDim)),
                                        query_norm)
                : std::sqrt(kd.l2sq(query.data(), col, kDim));
        hits.push_back({t, c, dist});
      }
    }
    std::sort(hits.begin(), hits.end(), [](const auto& a, const auto& b) {
      return std::tie(a.distance, a.table_id, a.column_index) <
             std::tie(b.distance, b.table_id, b.column_index);
    });
    hits.resize(std::min(hits.size(), 3 * k));
    return hits;
  };
  for (Metric metric : {Metric::kCosine, Metric::kL2}) {
    std::vector<std::vector<size_t>> oracle;
    for (const auto& query : bench.queries) {
      const auto& qcols = embs[query.table_index];
      std::vector<Hits> per_column;
      if (query.column_index >= 0) {
        per_column.push_back(top_hits(
            qcols[static_cast<size_t>(query.column_index)], metric));
      } else {
        for (const auto& col : qcols) per_column.push_back(top_hits(col, metric));
      }
      oracle.push_back(
          TableRanker::RankFromColumnHits(per_column, query.table_index));
    }
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
      SearchRunOptions run;
      run.index.metric = metric;
      run.num_threads = 2;
      run.shards = shards;
      EXPECT_EQ(RunSearch(bench, embed, k, run), oracle)
          << shards << " shards, metric " << static_cast<int>(metric);
    }
  }
  internal::OverrideKernelsForTest(nullptr);
}

TEST(PipelineTest, RandomEmbeddingsScoreLow) {
  lakebench::SearchBenchmark bench;
  bench.name = "random";
  for (int i = 0; i < 30; ++i) {
    Table t("t" + std::to_string(i), "d");
    t.AddColumn("c", {"x"});
    bench.tables.push_back(std::move(t));
  }
  lakebench::SearchQuery q;
  q.table_index = 0;
  bench.queries.push_back(q);
  bench.gold.push_back({1});  // single relevant table
  Rng rng(4);
  std::vector<std::vector<std::vector<float>>> embs(30);
  for (auto& e : embs) {
    e = {{static_cast<float>(rng.Normal()), static_cast<float>(rng.Normal()),
          static_cast<float>(rng.Normal())}};
  }
  auto embed = [&](size_t t) { return embs[t]; };
  SearchReport report = EvaluateEmbeddingSearch(bench, embed, 5);
  EXPECT_LT(report.mean_f1, 0.5);
}

}  // namespace
}  // namespace tsfm::search
