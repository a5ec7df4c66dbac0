// Builds the model-input feature sequence from table sketches
// (paper Sec III-B and Fig 1, right panel).
//
// The "input string" is [CLS] <description tokens> [SEP] <col1 name tokens>
// [SEP] <col2 name tokens> [SEP] ... Each token carries six feature tracks:
// token id, within-column position, column position, column type, the
// MinHash vector of its column (content snapshot for description tokens),
// and the numerical sketch of its column (zeros for description tokens).
#ifndef TSFM_CORE_INPUT_ENCODER_H_
#define TSFM_CORE_INPUT_ENCODER_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "core/config.h"
#include "sketch/table_sketch.h"
#include "text/tokenizer.h"

namespace tsfm::core {

/// \brief The fully-featurized input sequence of one table (or table pair).
struct EncodedTable {
  std::vector<int> token_ids;
  std::vector<int> token_pos;     ///< position within the column name (0-based)
  std::vector<int> column_pos;    ///< 0 = description/CLS/SEP, 1..N = columns
  std::vector<int> column_type;   ///< 0 = none, 1..4 = string/int/float/date
  std::vector<int> segment;       ///< 0 = first table, 1 = second (pair input)
  /// Per-token dense features; all rows have fixed widths
  /// (MinHashInputDim / NumericalInputDim).
  std::vector<std::vector<float>> minhash;
  std::vector<std::vector<float>> numerical;
  /// Token span (start, length) of each column's name tokens, per table.
  /// column_spans[0] covers the first table's columns; for pair inputs
  /// column_spans[1] covers the second.
  std::vector<std::vector<std::pair<size_t, size_t>>> column_spans;

  size_t size() const { return token_ids.size(); }
};

/// \brief Sketch-ablation switches (paper Tables III/IV).
///
/// Disabling a sketch zeroes its feature track, which is equivalent to
/// removing that input from the model: the linear projection then
/// contributes only its bias.
struct SketchAblation {
  bool use_minhash = true;    ///< column cell/word MinHash vectors
  bool use_numerical = true;  ///< 16-slot numerical sketches
  bool use_snapshot = true;   ///< table-level content snapshot
};

/// Zeroes the feature tracks disabled by `ablation` in-place.
/// The content snapshot occupies the MinHash track of tokens with
/// column_pos == 0; column MinHashes occupy tokens with column_pos > 0.
void ApplyAblation(const SketchAblation& ablation, EncodedTable* encoded);

/// \brief Turns TableSketch objects into EncodedTable sequences.
class InputEncoder {
 public:
  /// The tokenizer's vocabulary must fit the model's embedding table:
  /// `tokenizer->vocab().size() <= config->vocab_size`, checked here rather
  /// than at the first out-of-range token id.
  InputEncoder(const TabSketchFMConfig* config,
               const text::Tokenizer* tokenizer);

  /// Encodes one table: [CLS] desc [SEP] col1 [SEP] col2 ... [SEP].
  EncodedTable EncodeTable(const TableSketch& sketch) const;

  /// Encodes a pair for the cross-encoder: the two single-table sequences
  /// concatenated (the second loses its [CLS]) with segment ids 0/1.
  /// Both halves share the [CLS] of the first — its pooler output is the
  /// pair representation (paper Fig 2b).
  EncodedTable EncodePair(const TableSketch& a, const TableSketch& b) const;

 private:
  // Appends one table's tokens to `out` with the given segment id.
  // `with_cls` controls the leading [CLS].
  void AppendTable(const TableSketch& sketch, int segment_id, bool with_cls,
                   size_t max_len, EncodedTable* out) const;

  const TabSketchFMConfig* config_;
  const text::Tokenizer* tokenizer_;
};

}  // namespace tsfm::core

#endif  // TSFM_CORE_INPUT_ENCODER_H_
