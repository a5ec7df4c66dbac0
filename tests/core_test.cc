#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/cross_encoder.h"
#include "core/embedder.h"
#include "core/finetuner.h"
#include "core/input_encoder.h"
#include "core/mlm.h"
#include "core/model.h"
#include "core/pretrainer.h"
#include "lakebench/corpus.h"
#include "lakebench/finetune_benchmarks.h"
#include "lakebench/search_benchmarks.h"
#include "nn/autograd.h"
#include "test_util.h"

namespace tsfm::core {
namespace {

TabSketchFMConfig TinyConfig(size_t vocab_size) {
  TabSketchFMConfig config;
  config.encoder.hidden = 16;
  config.encoder.num_layers = 1;
  config.encoder.num_heads = 2;
  config.encoder.ffn_dim = 32;
  config.encoder.dropout = 0.0f;
  config.vocab_size = vocab_size;
  config.max_seq_len = 48;
  config.num_perm = 8;
  return config;
}

Table MakeToyTable() {
  Table t("toy", "residential properties");
  t.AddColumn("street", {"main st", "oak ave", "elm rd"});
  t.AddColumn("age", {"10", "25", "40"});
  t.AddColumn("price", {"100.5", "250.25", "399.9"});
  t.InferTypes();
  return t;
}

text::Vocab MakeToyVocab() {
  return text::Vocab::Build({"residential", "properties", "street", "age", "price",
                             "table", "second", "about", "values"});
}

// ----------------------------------------------------------- InputEncoder

TEST(InputEncoderTest, SingleTableLayout) {
  text::Vocab vocab = MakeToyVocab();
  TabSketchFMConfig config = TinyConfig(vocab.size());
  text::Tokenizer tokenizer(&vocab);
  InputEncoder encoder(&config, &tokenizer);

  SketchOptions opt;
  opt.num_perm = config.num_perm;
  TableSketch sketch = BuildTableSketch(MakeToyTable(), opt);
  EncodedTable enc = encoder.EncodeTable(sketch);

  ASSERT_GT(enc.size(), 0u);
  EXPECT_EQ(enc.token_ids[0], text::kClsId);
  EXPECT_EQ(enc.column_pos[0], 0);
  // All parallel tracks have the same length.
  EXPECT_EQ(enc.token_pos.size(), enc.size());
  EXPECT_EQ(enc.column_pos.size(), enc.size());
  EXPECT_EQ(enc.column_type.size(), enc.size());
  EXPECT_EQ(enc.segment.size(), enc.size());
  EXPECT_EQ(enc.minhash.size(), enc.size());
  EXPECT_EQ(enc.numerical.size(), enc.size());
  // One span per column.
  ASSERT_EQ(enc.column_spans.size(), 1u);
  EXPECT_EQ(enc.column_spans[0].size(), 3u);
  // Column types recorded: street=string(1), age=int(2), price=float(3).
  auto [s0, l0] = enc.column_spans[0][0];
  EXPECT_EQ(enc.column_type[s0], 1);
  auto [s1, l1] = enc.column_spans[0][1];
  EXPECT_EQ(enc.column_type[s1], 2);
  auto [s2, l2] = enc.column_spans[0][2];
  EXPECT_EQ(enc.column_type[s2], 3);
  // Segment all zero for single table.
  for (int s : enc.segment) EXPECT_EQ(s, 0);
}

TEST(InputEncoderDeathTest, VocabularyLargerThanTheModelAborts) {
  // A vocabulary the embedding table cannot hold fails when the encoder is
  // built, naming both sizes, not at the first out-of-range token id.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  text::Vocab vocab = MakeToyVocab();
  TabSketchFMConfig config = TinyConfig(vocab.size() - 1);
  text::Tokenizer tokenizer(&vocab);
  const std::string sizes = "\\(" + std::to_string(vocab.size()) + " vs " +
                            std::to_string(vocab.size() - 1) + "\\)";
  EXPECT_DEATH({ InputEncoder encoder(&config, &tokenizer); },
               "Check failed.*" + sizes);
}

TEST(InputEncoderTest, DescriptionTokensCarrySnapshot) {
  text::Vocab vocab = MakeToyVocab();
  TabSketchFMConfig config = TinyConfig(vocab.size());
  text::Tokenizer tokenizer(&vocab);
  InputEncoder encoder(&config, &tokenizer);
  SketchOptions opt;
  opt.num_perm = config.num_perm;
  TableSketch sketch = BuildTableSketch(MakeToyTable(), opt);
  EncodedTable enc = encoder.EncodeTable(sketch);

  // CLS (column_pos 0) minhash track = duplicated snapshot.
  auto snapshot = sketch.content_snapshot.ToFloats();
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_FLOAT_EQ(enc.minhash[0][i], snapshot[i]);
    EXPECT_FLOAT_EQ(enc.minhash[0][snapshot.size() + i], snapshot[i]);
  }
  // Description numerical track is all zero.
  for (float v : enc.numerical[0]) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(InputEncoderTest, PairEncodingSegments) {
  text::Vocab vocab = MakeToyVocab();
  TabSketchFMConfig config = TinyConfig(vocab.size());
  text::Tokenizer tokenizer(&vocab);
  InputEncoder encoder(&config, &tokenizer);
  SketchOptions opt;
  opt.num_perm = config.num_perm;
  TableSketch a = BuildTableSketch(MakeToyTable(), opt);
  Table t2("toy2", "second table about values");
  t2.AddColumn("value", {"1", "2"});
  t2.InferTypes();
  TableSketch b = BuildTableSketch(t2, opt);

  EncodedTable enc = encoder.EncodePair(a, b);
  ASSERT_EQ(enc.column_spans.size(), 2u);
  EXPECT_LE(enc.size(), config.max_seq_len);
  // Exactly one CLS, at position 0.
  size_t cls_count = 0;
  for (int id : enc.token_ids) {
    if (id == text::kClsId) ++cls_count;
  }
  EXPECT_EQ(cls_count, 1u);
  // Both segments present.
  bool has0 = false, has1 = false;
  for (int s : enc.segment) {
    has0 |= s == 0;
    has1 |= s == 1;
  }
  EXPECT_TRUE(has0);
  EXPECT_TRUE(has1);
}

TEST(InputEncoderTest, TruncatesWideTables) {
  text::Vocab vocab = MakeToyVocab();
  TabSketchFMConfig config = TinyConfig(vocab.size());
  config.max_seq_len = 16;
  text::Tokenizer tokenizer(&vocab);
  InputEncoder encoder(&config, &tokenizer);

  Table wide("wide", "many columns");
  for (int c = 0; c < 30; ++c) {
    wide.AddColumn("col" + std::to_string(c), {"1", "2"});
  }
  wide.InferTypes();
  SketchOptions opt;
  opt.num_perm = config.num_perm;
  EncodedTable enc = encoder.EncodeTable(BuildTableSketch(wide, opt));
  EXPECT_LE(enc.size(), 16u);
}

TEST(InputEncoderTest, AblationZeroesTracks) {
  text::Vocab vocab = MakeToyVocab();
  TabSketchFMConfig config = TinyConfig(vocab.size());
  text::Tokenizer tokenizer(&vocab);
  InputEncoder encoder(&config, &tokenizer);
  SketchOptions opt;
  opt.num_perm = config.num_perm;
  EncodedTable enc = encoder.EncodeTable(BuildTableSketch(MakeToyTable(), opt));

  EncodedTable no_minhash = enc;
  SketchAblation ab1;
  ab1.use_minhash = false;
  ApplyAblation(ab1, &no_minhash);
  // Column tokens zeroed, snapshot (column_pos 0) kept.
  for (size_t i = 0; i < no_minhash.size(); ++i) {
    if (no_minhash.column_pos[i] > 0) {
      for (float v : no_minhash.minhash[i]) EXPECT_FLOAT_EQ(v, 0.0f);
    }
  }
  bool snapshot_nonzero = false;
  for (float v : no_minhash.minhash[0]) snapshot_nonzero |= v != 0.0f;
  EXPECT_TRUE(snapshot_nonzero);

  EncodedTable no_numerical = enc;
  SketchAblation ab2;
  ab2.use_numerical = false;
  ApplyAblation(ab2, &no_numerical);
  for (size_t i = 0; i < no_numerical.size(); ++i) {
    for (float v : no_numerical.numerical[i]) EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

// -------------------------------------------------------------------- MLM

TEST(MlmTest, WholeColumnMasking) {
  text::Vocab vocab = MakeToyVocab();
  TabSketchFMConfig config = TinyConfig(vocab.size());
  text::Tokenizer tokenizer(&vocab);
  InputEncoder encoder(&config, &tokenizer);
  SketchOptions opt;
  opt.num_perm = config.num_perm;
  EncodedTable enc = encoder.EncodeTable(BuildTableSketch(MakeToyTable(), opt));

  MlmSampler sampler(&config);
  Rng rng(1);
  MlmExample ex = sampler.MaskColumn(enc, 1, &rng);
  auto [start, len] = enc.column_spans[0][1];
  ASSERT_GT(len, 0u);
  for (size_t i = start; i < start + len; ++i) {
    EXPECT_EQ(ex.input.token_ids[i], text::kMaskId);
    EXPECT_EQ(ex.targets[i], enc.token_ids[i]);
  }
  // Other columns untouched.
  auto [s2, l2] = enc.column_spans[0][2];
  for (size_t i = s2; i < s2 + l2; ++i) {
    EXPECT_EQ(ex.input.token_ids[i], enc.token_ids[i]);
  }
}

TEST(MlmTest, SmallTableMasksEveryColumn) {
  text::Vocab vocab = MakeToyVocab();
  TabSketchFMConfig config = TinyConfig(vocab.size());
  text::Tokenizer tokenizer(&vocab);
  InputEncoder encoder(&config, &tokenizer);
  SketchOptions opt;
  opt.num_perm = config.num_perm;
  EncodedTable enc = encoder.EncodeTable(BuildTableSketch(MakeToyTable(), opt));
  MlmSampler sampler(&config);
  Rng rng(2);
  auto examples = sampler.Sample(enc, &rng);
  EXPECT_EQ(examples.size(), 3u);  // 3 columns <= max 5
}

TEST(MlmTest, LargeTableCapsExamples) {
  text::Vocab vocab = MakeToyVocab();
  TabSketchFMConfig config = TinyConfig(vocab.size());
  config.max_seq_len = 96;
  text::Tokenizer tokenizer(&vocab);
  InputEncoder encoder(&config, &tokenizer);
  Table wide("wide", "many");
  for (int c = 0; c < 12; ++c) wide.AddColumn("c" + std::to_string(c), {"1"});
  wide.InferTypes();
  SketchOptions opt;
  opt.num_perm = config.num_perm;
  EncodedTable enc = encoder.EncodeTable(BuildTableSketch(wide, opt));
  MlmSampler sampler(&config);
  Rng rng(3);
  EXPECT_EQ(sampler.Sample(enc, &rng).size(), config.max_masked_columns);
}

// ------------------------------------------------------------------ Model

TEST(ModelTest, EncodeShapes) {
  Rng rng(4);
  text::Vocab vocab = MakeToyVocab();
  TabSketchFMConfig config = TinyConfig(vocab.size());
  TabSketchFM model(config, &rng);
  text::Tokenizer tokenizer(&vocab);
  InputEncoder encoder(&config, &tokenizer);
  SketchOptions opt;
  opt.num_perm = config.num_perm;
  EncodedTable enc = encoder.EncodeTable(BuildTableSketch(MakeToyTable(), opt));

  nn::Var hidden = model.Encode(enc, false, &rng);
  EXPECT_EQ(hidden->value().rows(), enc.size());
  EXPECT_EQ(hidden->value().cols(), config.encoder.hidden);
  nn::Var logits = model.MlmLogits(hidden);
  EXPECT_EQ(logits->value().cols(), config.vocab_size);
  nn::Var pooled = model.Pool(hidden);
  EXPECT_EQ(pooled->value().rows(), 1u);
  EXPECT_EQ(pooled->value().cols(), config.encoder.hidden);
}

TEST(ModelTest, CopyParamsMakesModelsIdentical) {
  Rng rng1(5), rng2(6);
  TabSketchFMConfig config = TinyConfig(64);
  TabSketchFM a(config, &rng1);
  TabSketchFM b(config, &rng2);
  CopyParams(a, b);
  auto pa = a.Params("m");
  auto pb = b.Params("m");
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    for (size_t j = 0; j < pa[i].var->value().size(); ++j) {
      ASSERT_FLOAT_EQ(pa[i].var->value()[j], pb[i].var->value()[j]);
    }
  }
}

// ------------------------------------------------------------ Pretraining

TEST(PretrainTest, LossDecreases) {
  lakebench::DomainCatalog catalog(7, 40);
  lakebench::CorpusScale cscale;
  cscale.num_tables = 8;
  cscale.augmentations = 1;
  auto corpus = lakebench::MakePretrainCorpus(catalog, cscale, 7);
  text::Vocab vocab = lakebench::BuildVocabFromTables(corpus, false);

  TabSketchFMConfig config = TinyConfig(vocab.size());
  Rng rng(8);
  TabSketchFM model(config, &rng);
  text::Tokenizer tokenizer(&vocab);
  InputEncoder encoder(&config, &tokenizer);

  SketchOptions sopt;
  sopt.num_perm = config.num_perm;
  std::vector<EncodedTable> train, val;
  for (size_t i = 0; i < corpus.size(); ++i) {
    EncodedTable enc = encoder.EncodeTable(BuildTableSketch(corpus[i], sopt));
    (i % 5 == 0 ? val : train).push_back(std::move(enc));
  }

  PretrainOptions popt;
  popt.epochs = 3;
  popt.batch_size = 4;
  popt.lr = 1e-3f;
  popt.seed = 1;
  Pretrainer pretrainer(&model, popt);
  PretrainResult result = pretrainer.Train(train, val);
  ASSERT_GE(result.train_losses.size(), 2u);
  EXPECT_LT(result.train_losses.back(), result.train_losses.front());
}

// ------------------------------------------------------------- Finetuning

TEST(FinetuneTest, CrossEncoderOverfitsTinyBinaryTask) {
  lakebench::DomainCatalog catalog(11, 40);
  lakebench::BenchScale scale;
  scale.num_pairs = 24;
  scale.rows = 16;
  PairDataset ds = lakebench::MakeTusSantos(catalog, scale, 3);
  SketchOptions sopt;
  sopt.num_perm = 8;
  ds.BuildSketches(sopt);

  std::vector<Table> all = ds.tables;
  text::Vocab vocab = lakebench::BuildVocabFromTables(all, false);
  TabSketchFMConfig config = TinyConfig(vocab.size());
  text::Tokenizer tokenizer(&vocab);
  InputEncoder input_encoder(&config, &tokenizer);

  Rng rng(9);
  CrossEncoder encoder(config, ds.task, ds.num_outputs, &rng);
  FinetuneOptions fopt;
  fopt.epochs = 10;
  fopt.lr = 5e-4f;
  fopt.patience = 10;
  Finetuner finetuner(&encoder, &input_encoder, fopt);
  FinetuneResult result = finetuner.Train(ds);
  EXPECT_LT(result.train_losses.back(), result.train_losses.front());

  // Predictions on train examples should mostly match labels.
  auto preds = finetuner.Predict(ds, ds.train);
  size_t correct = 0;
  for (size_t i = 0; i < preds.size(); ++i) {
    int label = preds[i][0] > 0.5f ? 1 : 0;
    if (label == ds.train[i].label) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / preds.size(), 0.7);
}

// --------------------------------------------------------------- Embedder

TEST(EmbedderTest, ShapesAndDeterminism) {
  Rng rng(10);
  text::Vocab vocab = MakeToyVocab();
  TabSketchFMConfig config = TinyConfig(vocab.size());
  TabSketchFM model(config, &rng);
  text::Tokenizer tokenizer(&vocab);
  InputEncoder input_encoder(&config, &tokenizer);
  Embedder embedder(&model, &input_encoder);

  SketchOptions opt;
  opt.num_perm = config.num_perm;
  TableSketch sketch = BuildTableSketch(MakeToyTable(), opt);

  auto t1 = embedder.TableEmbedding(sketch);
  auto t2 = embedder.TableEmbedding(sketch);
  EXPECT_EQ(t1.size(), config.encoder.hidden);
  EXPECT_EQ(t1, t2);

  auto cols = embedder.ColumnEmbeddings(sketch);
  ASSERT_EQ(cols.size(), 3u);
  // Three z-normalized blocks: context + minhash proj + numerical proj.
  for (const auto& c : cols) EXPECT_EQ(c.size(), 3 * config.encoder.hidden);
  // Distinct columns embed differently.
  EXPECT_NE(cols[0], cols[1]);

  auto ctx_only = embedder.ContextualColumnStates(sketch);
  ASSERT_EQ(ctx_only.size(), 3u);
  for (const auto& c : ctx_only) EXPECT_EQ(c.size(), config.encoder.hidden);
}

TEST(EmbedderTest, NonFiniteCellsEmbedToFiniteColumns) {
  // strtod reads "inf", "1e999" and "-nan", and finite cells can overflow
  // a column's mean or stddev; attention would spread one non-finite
  // sketch value to every column of the table.
  Rng rng(10);
  text::Vocab vocab = MakeToyVocab();
  TabSketchFMConfig config = TinyConfig(vocab.size());
  TabSketchFM model(config, &rng);
  text::Tokenizer tokenizer(&vocab);
  InputEncoder input_encoder(&config, &tokenizer);
  Embedder embedder(&model, &input_encoder);

  Table t("odd", "numbers at the edge of double");
  t.AddColumn("inf", {"1.5", "inf", "2.5"});
  t.AddColumn("huge", {"1e999", "3", "4"});
  t.AddColumn("nan", {"-nan", "1", "2"});
  t.AddColumn("sum_overflows", {"1e308", "1e308", "1e308"});
  t.AddColumn("var_overflows", {"-1e308", "1e308", "0"});
  t.InferTypes();
  SketchOptions opt;
  opt.num_perm = config.num_perm;
  const auto cols = embedder.ColumnEmbeddings(BuildTableSketch(t, opt));
  ASSERT_EQ(cols.size(), 5u);
  for (size_t c = 0; c < cols.size(); ++c) {
    for (float x : cols[c]) ASSERT_TRUE(std::isfinite(x)) << "column " << c;
  }
}

// The end-to-end benchmark's model stack: hidden 32, 2 layers, 2 heads,
// ffn 64, 16 MinHash slots (96-dim column embeddings), seeded and
// untrained, over a vocabulary of generator tables. Members point into
// each other: construct in place, never move.
struct E2eModel {
  static TabSketchFMConfig Config(size_t vocab_size) {
    TabSketchFMConfig config;
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

  E2eModel()
      : vocab(Vocab()),
        config(Config(vocab.size())),
        rng(1),
        model(config, &rng),
        tokenizer(&vocab),
        encoder(&config, &tokenizer),
        embedder(&model, &encoder) {}
  E2eModel(const E2eModel&) = delete;
  E2eModel& operator=(const E2eModel&) = delete;

  TableSketch Sketch(const Table& table) const {
    SketchOptions options;
    options.num_perm = config.num_perm;
    return BuildTableSketch(table, options);
  }

  text::Vocab vocab;
  TabSketchFMConfig config;
  Rng rng;
  TabSketchFM model;
  text::Tokenizer tokenizer;
  InputEncoder encoder;
  Embedder embedder;
};

// A few generator join tables and 32-row union tables.
std::vector<Table> GeneratorTables() {
  lakebench::WikiJoinScale join;
  join.num_tables = 12;
  join.num_queries = 2;
  lakebench::UnionSearchScale scale;
  scale.num_seeds = 3;
  scale.variants_per_seed = 4;
  scale.num_queries = 2;
  scale.rows = 32;
  std::vector<Table> tables = lakebench::MakeWikiJoinSearch(join, 5).tables;
  for (Table& t : lakebench::MakeUnionSearch(lakebench::DomainCatalog(42, 200),
                                             scale, 5, "lake")
                      .tables) {
    tables.push_back(std::move(t));
  }
  return tables;
}

// Every float of `columns`, as bits.
std::vector<uint32_t> Bits(const std::vector<std::vector<float>>& columns) {
  std::vector<uint32_t> bits;
  for (const auto& column : columns) {
    const size_t at = bits.size();
    bits.resize(at + column.size());
    std::memcpy(bits.data() + at, column.data(), column.size() * sizeof(float));
  }
  return bits;
}

TEST(EmbedderTest, ColumnEmbeddingsByteEqualUnderEveryKernelLevel) {
  // nn::MatMul's SIMD kernel keeps the scalar loop's order and rounding
  // (nn/matmul_kernel.h), so the selection never changes an embedding.
  // The best level is pinned, not left automatic, so the LAKS_FORCE_SCALAR
  // leg compares SIMD with scalar too.
  const E2eModel m;
  const std::vector<Table> tables = GeneratorTables();
  ASSERT_GT(tables.size(), 20u);
  for (const Table& table : tables) {
    const TableSketch sketch = m.Sketch(table);
    std::vector<uint32_t> automatic = Bits(m.embedder.ColumnEmbeddings(sketch));
    std::vector<uint32_t> best, scalar;
    {
      testutil::ScopedSimdLevel pin(BestSimdLevel());
      best = Bits(m.embedder.ColumnEmbeddings(sketch));
    }
    {
      testutil::ScopedSimdLevel pin(SimdLevel::kScalar);
      scalar = Bits(m.embedder.ColumnEmbeddings(sketch));
    }
    ASSERT_EQ(scalar.size(), table.num_columns() * 96) << table.id();
    EXPECT_EQ(best, scalar) << table.id();
    EXPECT_EQ(automatic, scalar) << table.id();
  }
}

TEST(ModelTest, EncodeByteEqualWithAndWithoutTheTape) {
  const E2eModel m;
  for (const Table& table : GeneratorTables()) {
    const EncodedTable encoded = m.encoder.EncodeTable(m.Sketch(table));
    Rng rng(0);
    const nn::Var taped = m.model.Encode(encoded, /*training=*/false, &rng);
    ASSERT_TRUE(taped->requires_grad());
    nn::NoGradGuard no_grad;
    const nn::Var untaped = m.model.Encode(encoded, /*training=*/false, &rng);
    EXPECT_FALSE(untaped->requires_grad());
    EXPECT_EQ(Bits({untaped->value().flat()}), Bits({taped->value().flat()}))
        << table.id();
  }
}

TEST(EmbedderTest, ZNormalizeAndConcat) {
  std::vector<float> a = {1, 2, 3, 4};
  ZNormalize(&a);
  float mean = 0;
  for (float v : a) mean += v;
  EXPECT_NEAR(mean, 0.0f, 1e-5);

  auto cat = NormalizeAndConcat({1, 2, 3}, {10, 20, 30, 40});
  EXPECT_EQ(cat.size(), 7u);
}

TEST(EmbedderTest, ZNormalizeConstantVectorIsNoop) {
  std::vector<float> v = {5, 5, 5};
  ZNormalize(&v);
  EXPECT_FLOAT_EQ(v[0], 5.0f);
}

}  // namespace
}  // namespace tsfm::core
