#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/matmul_kernel.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/tensor.h"
#include "nn/transformer.h"
#include "util/random.h"
#include "util/simd.h"

namespace tsfm::nn {
namespace {

// Equal float bit patterns: -0.0 differs from +0.0, and NaNs compare by
// payload.
bool BytesEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ----------------------------------------------------------------- Tensor

TEST(TensorTest, ConstructAndAccess) {
  Tensor t(2, 3, 1.5f);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_FLOAT_EQ(t.at(1, 2), 1.5f);
  t.at(0, 1) = 2.0f;
  EXPECT_FLOAT_EQ(t[1], 2.0f);
}

TEST(TensorTest, Arithmetic) {
  Tensor a(1, 3, 2.0f);
  Tensor b(1, 3, 3.0f);
  a.Accumulate(b);
  EXPECT_FLOAT_EQ(a[0], 5.0f);
  a.Scale(2.0f);
  EXPECT_FLOAT_EQ(a.Sum(), 30.0f);
  EXPECT_FLOAT_EQ(a.Mean(), 10.0f);
  a.Fill(0.0f);
  EXPECT_FLOAT_EQ(a.Norm(), 0.0f);
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor(3, 4).ShapeString(), "[3x4]");
}

// --------------------------------------------------------------- Autograd

TEST(AutogradTest, BackwardThroughSharedNode) {
  // y = (x + x) summed: dy/dx = 2 everywhere.
  Var x = MakeLeaf(Tensor(2, 2, 1.0f), true);
  Var loss = SumAll(Add(x, x));
  Backward(loss);
  for (size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x->grad()[i], 2.0f);
}

TEST(AutogradTest, GradientsAccumulateAcrossBackwards) {
  Var x = MakeLeaf(Tensor(1, 1, 3.0f), true);
  Backward(SumAll(Scale(x, 2.0f)));
  Backward(SumAll(Scale(x, 2.0f)));
  EXPECT_FLOAT_EQ(x->grad()[0], 4.0f);
  x->ZeroGrad();
  EXPECT_FLOAT_EQ(x->grad()[0], 0.0f);
}

TEST(AutogradTest, NoGradLeafGetsNoGradient) {
  Var x = MakeLeaf(Tensor(1, 2, 1.0f), false);
  Var y = MakeLeaf(Tensor(1, 2, 2.0f), true);
  Var loss = SumAll(Mul(x, y));
  EXPECT_TRUE(loss->requires_grad());
  Backward(loss);
  EXPECT_FLOAT_EQ(y->grad()[0], 1.0f);
}

TEST(AutogradTest, DeepChainDoesNotOverflowStack) {
  Var x = MakeLeaf(Tensor(1, 1, 1.0f), true);
  Var h = x;
  for (int i = 0; i < 5000; ++i) h = Scale(h, 1.0f);
  Backward(SumAll(h));
  EXPECT_FLOAT_EQ(x->grad()[0], 1.0f);
}

TEST(AutogradTest, NoGradGuardBuildsNoTapeNestsAndRestores) {
  Var w = MakeLeaf(Tensor(3, 2, 0.5f), true);
  Var x = MakeLeaf(Tensor(2, 3, 1.5f), false);
  auto forward = [&] { return Gelu(AddRow(MatMul(x, w), SelectRow(w, 0))); };
  Var taped = forward();
  ASSERT_TRUE(taped->requires_grad());
  EXPECT_EQ(taped->parents().size(), 1u);
  EXPECT_TRUE(taped->backward_fn());

  {
    NoGradGuard outer;
    {
      NoGradGuard inner;
      EXPECT_FALSE(forward()->requires_grad());
    }
    EXPECT_FALSE(forward()->requires_grad())
        << "the inner guard must restore the outer's state";
    // The guard is per thread: another thread still builds the tape.
    bool other_thread = false;
    std::thread([&] { other_thread = forward()->requires_grad(); }).join();
    EXPECT_TRUE(other_thread);

    Var untaped = forward();
    EXPECT_FALSE(untaped->requires_grad());
    EXPECT_TRUE(untaped->parents().empty());
    EXPECT_FALSE(untaped->backward_fn());
    EXPECT_EQ(untaped->grad().size(), 0u);
    EXPECT_TRUE(BytesEqual(untaped->value().flat(), taped->value().flat()));
  }
  EXPECT_TRUE(forward()->requires_grad());
}

// ---------------------------------------------------------- MatMul kernel

TEST(MatMulKernelTest, BestKernelEqualsScalarLoopByteForByte) {
  // The contract of matmul_kernel.h: each output is the scalar loop's
  // value bit for bit, including where a zero in A (of either sign) must
  // hide the inf or NaN in the row of B it faces. The strip widths (32, 8)
  // and the scalar tail all get exercised by the n values.
  const MatMulKernelFn scalar = MatMulKernel(SimdLevel::kScalar);
  const MatMulKernelFn best = MatMulKernel(BestSimdLevel());
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(24);
  for (size_t m : {1, 5}) {
    for (size_t k : {0, 1, 17, 96}) {
      for (size_t n : {1, 7, 8, 15, 16, 17, 31, 32, 33, 64, 100}) {
        std::vector<float> a(m * k), b(k * n);
        for (float& v : a) v = static_cast<float>(rng.Normal());
        for (float& v : b) v = static_cast<float>(rng.Normal());
        for (size_t kk = 0; kk < k; ++kk) {
          float* brow = b.data() + kk * n;
          if (kk % 3 == 1) {
            // A poisoned row of B behind zeros of both signs in A.
            const float poison = kk % 9 == 1 ? nan : kk % 9 == 4 ? inf : -inf;
            for (size_t j = 0; j < n; j += 2) brow[j] = poison;
            for (size_t i = 0; i < m; ++i) {
              a[i * k + kk] = (i + kk) % 2 == 0 ? 0.0f : -0.0f;
            }
          } else if (kk % 3 == 2) {
            brow[kk % n] = -0.0f;  // signed-zero products
          }
        }
        // One all-zero row of A: every product skipped.
        if (m > 1) std::fill(a.begin() + k, a.begin() + 2 * k, -0.0f);
        std::vector<float> want(m * n, 0.0f), got(m * n, 0.0f);
        scalar(a.data(), b.data(), m, k, n, want.data());
        best(a.data(), b.data(), m, k, n, got.data());
        EXPECT_TRUE(BytesEqual(got, want))
            << SimdLevelName(BestSimdLevel()) << " m=" << m << " k=" << k
            << " n=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------- Modules

TEST(LinearTest, ForwardShapeAndParams) {
  Rng rng(1);
  Linear lin(4, 3, &rng);
  Var x = MakeLeaf(Tensor(2, 4, 0.5f), false);
  Var y = lin.Forward(x);
  EXPECT_EQ(y->value().rows(), 2u);
  EXPECT_EQ(y->value().cols(), 3u);
  EXPECT_EQ(lin.Params("lin").size(), 2u);
  EXPECT_EQ(lin.NumParams(), 4u * 3u + 3u);
}

TEST(EmbeddingTest, LookupRows) {
  Rng rng(2);
  Embedding emb(10, 4, &rng);
  Var out = emb.Forward({1, 1, 7});
  EXPECT_EQ(out->value().rows(), 3u);
  // Same id -> identical rows.
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out->value().at(0, j), out->value().at(1, j));
  }
}

TEST(AttentionTest, OutputShapePreserved) {
  Rng rng(3);
  MultiHeadAttention attn(8, 2, 0.0f, &rng);
  Var x = MakeLeaf(Tensor(5, 8, 0.1f), false);
  Var y = attn.Forward(x, /*training=*/false, &rng);
  EXPECT_EQ(y->value().rows(), 5u);
  EXPECT_EQ(y->value().cols(), 8u);
}

TEST(TransformerTest, StackRunsAndCollectsParams) {
  Rng rng(4);
  TransformerConfig config;
  config.hidden = 8;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.dropout = 0.0f;
  TransformerEncoder enc(config, &rng);
  Var x = MakeLeaf(Tensor(4, 8, 0.2f), false);
  Var y = enc.Forward(x, false, &rng);
  EXPECT_EQ(y->value().rows(), 4u);
  EXPECT_EQ(y->value().cols(), 8u);
  // 2 layers x (4 linears x2 + 2 norms x2 + 2 ffn x2) parameters present.
  EXPECT_GT(enc.Params("enc").size(), 20u);
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Rng rng(5);
  Var x = MakeLeaf(Tensor(2, 2, 1.0f), false);
  Var y = Dropout(x, 0.5f, /*training=*/false, &rng);
  EXPECT_EQ(x.get(), y.get());
}

TEST(DropoutTest, TrainingScalesSurvivors) {
  Rng rng(6);
  Var x = MakeLeaf(Tensor(1, 1000, 1.0f), false);
  Var y = Dropout(x, 0.25f, /*training=*/true, &rng);
  // Inverted dropout keeps expectation ~1.
  EXPECT_NEAR(y->value().Mean(), 1.0f, 0.15f);
  // Survivors are scaled by 1/(1-p).
  for (size_t i = 0; i < y->value().size(); ++i) {
    float v = y->value()[i];
    EXPECT_TRUE(v == 0.0f || std::abs(v - 1.0f / 0.75f) < 1e-5);
  }
}

// --------------------------------------------------------------- Training

TEST(AdamWTest, FitsLinearRegression) {
  Rng rng(7);
  // Ground truth: y = 2x - 1.
  Linear model(1, 1, &rng);
  AdamW::Options opt;
  opt.lr = 0.05f;
  opt.weight_decay = 0.0f;
  AdamW optimizer(model.Params("m"), opt);

  for (int step = 0; step < 300; ++step) {
    float xv = static_cast<float>(rng.UniformDouble(-1, 1));
    Var x = MakeLeaf(Tensor(1, 1, xv), false);
    Var pred = model.Forward(x);
    Var loss = MseLoss(pred, {2.0f * xv - 1.0f});
    optimizer.ZeroGrad();
    Backward(loss);
    optimizer.Step();
  }
  EXPECT_NEAR(model.weight()->value()[0], 2.0f, 0.1f);
  EXPECT_NEAR(model.bias()->value()[0], -1.0f, 0.1f);
}

TEST(AdamWTest, GradientClippingBoundsStep) {
  Rng rng(8);
  Linear model(1, 1, &rng);
  const float w0 = model.weight()->value()[0];
  AdamW::Options opt;
  opt.lr = 0.01f;
  opt.clip_norm = 1.0f;
  AdamW optimizer(model.Params("m"), opt);
  // Enormous gradient.
  model.weight()->grad()[0] = 1e8f;
  optimizer.Step();
  EXPECT_LT(std::abs(model.weight()->value()[0] - w0), 0.1f);
}

TEST(ScheduleTest, WarmupThenDecay) {
  LinearWarmupSchedule sched(1.0f, 10, 110);
  EXPECT_LT(sched.LrAt(0), 0.2f);
  EXPECT_FLOAT_EQ(sched.LrAt(9), 1.0f);
  EXPECT_GT(sched.LrAt(10), sched.LrAt(100));
  EXPECT_NEAR(sched.LrAt(1000), 0.0f, 1e-6);
}

TEST(TransformerTest, OverfitsTinyClassification) {
  // Two "token sequences" must be classified by their first token.
  Rng rng(9);
  TransformerConfig config;
  config.hidden = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.dropout = 0.0f;
  Embedding emb(4, 8, &rng);
  TransformerEncoder enc(config, &rng);
  Linear head(8, 2, &rng);

  std::vector<NamedParam> params = emb.Params("emb");
  auto p2 = enc.Params("enc");
  auto p3 = head.Params("head");
  params.insert(params.end(), p2.begin(), p2.end());
  params.insert(params.end(), p3.begin(), p3.end());
  AdamW::Options opt;
  opt.lr = 0.01f;
  AdamW optimizer(params, opt);

  auto loss_of = [&](const std::vector<int>& ids, int label, bool backward) {
    Var h = enc.Forward(emb.Forward(ids), false, &rng);
    Var logits = head.Forward(SelectRow(h, 0));
    Var loss = CrossEntropyLoss(logits, {label});
    if (backward) Backward(loss);
    return loss->value()[0];
  };

  for (int step = 0; step < 150; ++step) {
    optimizer.ZeroGrad();
    loss_of({1, 2, 3}, 0, true);
    loss_of({2, 2, 3}, 1, true);
    optimizer.Step();
  }
  EXPECT_LT(loss_of({1, 2, 3}, 0, false), 0.1f);
  EXPECT_LT(loss_of({2, 2, 3}, 1, false), 0.1f);
}

// ------------------------------------------------------------ Serialization

TEST(SerializeTest, CheckpointRoundTrip) {
  Rng rng(10);
  Linear a(3, 2, &rng);
  std::string path = testing::TempDir() + "/tsfm_ckpt_test.bin";
  ASSERT_TRUE(SaveCheckpoint(a.Params("m"), path).ok());

  Rng rng2(999);
  Linear b(3, 2, &rng2);
  ASSERT_TRUE(LoadCheckpoint(b.Params("m"), path).ok());
  for (size_t i = 0; i < a.weight()->value().size(); ++i) {
    EXPECT_FLOAT_EQ(a.weight()->value()[i], b.weight()->value()[i]);
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Rng rng(11);
  Linear a(3, 2, &rng);
  std::string path = testing::TempDir() + "/tsfm_ckpt_bad.bin";
  ASSERT_TRUE(SaveCheckpoint(a.Params("m"), path).ok());
  Linear c(4, 2, &rng);
  EXPECT_FALSE(LoadCheckpoint(c.Params("m"), path).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsIoError) {
  Rng rng(12);
  Linear a(2, 2, &rng);
  auto status = LoadCheckpoint(a.Params("m"), "/nonexistent/ckpt.bin");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace tsfm::nn
