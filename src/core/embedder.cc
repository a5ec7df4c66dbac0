#include "core/embedder.h"

#include <cmath>

#include "nn/ops.h"

namespace tsfm::core {

std::vector<float> Embedder::TableEmbedding(const TableSketch& sketch) const {
  nn::NoGradGuard no_grad;
  EncodedTable encoded = input_encoder_->EncodeTable(sketch);
  ApplyAblation(ablation_, &encoded);
  Rng rng(0);
  nn::Var hidden = model_->Encode(encoded, /*training=*/false, &rng);
  nn::Var pooled = model_->Pool(hidden);
  return pooled->value().flat();
}

std::vector<std::vector<float>> Embedder::ColumnEmbeddings(
    const TableSketch& sketch) const {
  nn::NoGradGuard no_grad;
  std::vector<std::vector<float>> context = ContextualColumnStates(sketch);
  std::vector<std::vector<float>> out;
  out.reserve(context.size());
  for (size_t c = 0; c < sketch.columns.size(); ++c) {
    const ColumnSketch& col = sketch.columns[c];
    // 1-bit MinHash block: cosine of two such blocks estimates the value
    // Jaccard, exactly the signal join/subset search needs.
    std::vector<float> mh_input = col.OneBitMinHashInput();
    std::vector<float> num_input = col.numerical.ToFloats();
    if (!ablation_.use_minhash) std::fill(mh_input.begin(), mh_input.end(), 0.0f);
    if (!ablation_.use_numerical) {
      std::fill(num_input.begin(), num_input.end(), 0.0f);
    }
    std::vector<float> ctx_block = context[c];
    std::vector<float> mh_block = std::move(mh_input);
    std::vector<float> num_block = model_->ProjectNumerical(num_input);
    ZNormalize(&ctx_block);
    ZNormalize(&mh_block);
    ZNormalize(&num_block);
    std::vector<float> emb;
    emb.reserve(ctx_block.size() + mh_block.size() + num_block.size());
    emb.insert(emb.end(), ctx_block.begin(), ctx_block.end());
    emb.insert(emb.end(), mh_block.begin(), mh_block.end());
    emb.insert(emb.end(), num_block.begin(), num_block.end());
    out.push_back(std::move(emb));
  }
  return out;
}

std::vector<std::vector<float>> Embedder::ContextualColumnStates(
    const TableSketch& sketch) const {
  nn::NoGradGuard no_grad;
  EncodedTable encoded = input_encoder_->EncodeTable(sketch);
  ApplyAblation(ablation_, &encoded);
  Rng rng(0);
  nn::Var hidden = model_->Encode(encoded, /*training=*/false, &rng);
  const nn::Tensor& H = hidden->value();
  const size_t dim = H.cols();

  std::vector<std::vector<float>> out(sketch.columns.size(),
                                      std::vector<float>(dim, 0.0f));
  const auto& spans = encoded.column_spans[0];
  for (size_t c = 0; c < spans.size() && c < out.size(); ++c) {
    auto [start, len] = spans[c];
    if (len == 0) continue;
    for (size_t i = start; i < start + len; ++i) {
      for (size_t j = 0; j < dim; ++j) out[c][j] += H.at(i, j);
    }
    for (size_t j = 0; j < dim; ++j) out[c][j] /= static_cast<float>(len);
  }
  return out;
}

void ZNormalize(std::vector<float>* v) {
  if (v->empty()) return;
  double mean = 0.0;
  for (float x : *v) mean += x;
  mean /= static_cast<double>(v->size());
  double var = 0.0;
  for (float x : *v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v->size());
  double std = std::sqrt(var);
  if (std < 1e-9) return;
  for (auto& x : *v) x = static_cast<float>((x - mean) / std);
}

std::vector<float> NormalizeAndConcat(std::vector<float> a, std::vector<float> b) {
  ZNormalize(&a);
  ZNormalize(&b);
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

}  // namespace tsfm::core
