#include "core/input_encoder.h"

#include <algorithm>

#include "util/logging.h"

namespace tsfm::core {

namespace {

// Duplicates a K-wide snapshot signature to the 2K input width used by
// column MinHash vectors, so every token row has the same shape.
std::vector<float> SnapshotInput(const MinHash& snapshot) {
  std::vector<float> k = snapshot.ToFloats();
  std::vector<float> out;
  out.reserve(k.size() * 2);
  out.insert(out.end(), k.begin(), k.end());
  out.insert(out.end(), k.begin(), k.end());
  return out;
}

}  // namespace

InputEncoder::InputEncoder(const TabSketchFMConfig* config,
                           const text::Tokenizer* tokenizer)
    : config_(config), tokenizer_(tokenizer) {
  TSFM_CHECK_LE(tokenizer->vocab().size(), config->vocab_size)
      << "(tokenizer vocabulary size vs config vocab_size)";
}

void ApplyAblation(const SketchAblation& ablation, EncodedTable* encoded) {
  for (size_t i = 0; i < encoded->size(); ++i) {
    const bool is_snapshot_token = encoded->column_pos[i] == 0;
    if (is_snapshot_token) {
      if (!ablation.use_snapshot) {
        std::fill(encoded->minhash[i].begin(), encoded->minhash[i].end(), 0.0f);
      }
    } else {
      if (!ablation.use_minhash) {
        std::fill(encoded->minhash[i].begin(), encoded->minhash[i].end(), 0.0f);
      }
    }
    if (!ablation.use_numerical) {
      std::fill(encoded->numerical[i].begin(), encoded->numerical[i].end(), 0.0f);
    }
  }
}

void InputEncoder::AppendTable(const TableSketch& sketch, int segment_id,
                               bool with_cls, size_t max_len,
                               EncodedTable* out) const {
  const size_t mh_dim = config_->MinHashInputDim();
  const size_t num_dim = config_->NumericalInputDim();
  const std::vector<float> snapshot_vec = SnapshotInput(sketch.content_snapshot);
  const std::vector<float> zero_numerical(num_dim, 0.0f);

  auto push = [&](int id, int tpos, int cpos, int ctype,
                  const std::vector<float>& mh, const std::vector<float>& num) {
    out->token_ids.push_back(id);
    out->token_pos.push_back(std::min<int>(tpos, static_cast<int>(config_->max_token_pos) - 1));
    out->column_pos.push_back(std::min<int>(cpos, static_cast<int>(config_->max_columns)));
    out->column_type.push_back(ctype);
    out->segment.push_back(segment_id);
    TSFM_CHECK_EQ(mh.size(), mh_dim);
    TSFM_CHECK_EQ(num.size(), num_dim);
    out->minhash.push_back(mh);
    out->numerical.push_back(num);
  };

  // Paper: position 0 / column-position 0 is reserved for table metadata;
  // its MinHash track carries the content snapshot E_CS.
  if (with_cls) {
    push(text::kClsId, 0, 0, 0, snapshot_vec, zero_numerical);
  }
  // Description tokens.
  std::vector<int> desc_ids = tokenizer_->Encode(sketch.description);
  if (desc_ids.size() > 8) desc_ids.resize(8);
  int dpos = 0;
  for (int id : desc_ids) {
    if (out->size() >= max_len) break;
    push(id, dpos++, 0, 0, snapshot_vec, zero_numerical);
  }
  if (out->size() < max_len) {
    push(text::kSepId, 0, 0, 0, snapshot_vec, zero_numerical);
  }

  out->column_spans.emplace_back();
  auto& spans = out->column_spans.back();

  for (size_t c = 0; c < sketch.columns.size(); ++c) {
    if (out->size() + 2 > max_len) break;  // need room for >=1 token + SEP
    const ColumnSketch& col = sketch.columns[c];
    std::vector<int> name_ids = tokenizer_->Encode(col.name);
    if (name_ids.empty()) name_ids.push_back(text::kUnkId);
    if (name_ids.size() > config_->max_name_tokens) {
      name_ids.resize(config_->max_name_tokens);
    }
    const std::vector<float> mh = col.MinHashInput();
    const std::vector<float> num = col.numerical.ToFloats();
    const int ctype = static_cast<int>(col.type);
    const int cpos = static_cast<int>(c) + 1;

    size_t span_start = out->size();
    int tpos = 0;
    for (int id : name_ids) {
      if (out->size() + 1 >= max_len) break;  // reserve the final SEP
      push(id, tpos++, cpos, ctype, mh, num);
    }
    spans.emplace_back(span_start, out->size() - span_start);
    push(text::kSepId, 0, cpos, ctype, mh, num);
  }
}

EncodedTable InputEncoder::EncodeTable(const TableSketch& sketch) const {
  EncodedTable out;
  AppendTable(sketch, /*segment_id=*/0, /*with_cls=*/true, config_->max_seq_len, &out);
  return out;
}

EncodedTable InputEncoder::EncodePair(const TableSketch& a,
                                      const TableSketch& b) const {
  EncodedTable out;
  // Split the budget between the halves so a wide first table cannot starve
  // the second.
  const size_t half = config_->max_seq_len / 2;
  AppendTable(a, /*segment_id=*/0, /*with_cls=*/true, half, &out);
  AppendTable(b, /*segment_id=*/1, /*with_cls=*/false, config_->max_seq_len, &out);
  return out;
}

}  // namespace tsfm::core
