// The paper's table-level content snapshot (Sec III-A): a MinHash over the
// set of row-strings of the first rows. The paper folds in 10,000 rows;
// every sketch here folds in kSnapshotRows.
#ifndef TSFM_SKETCH_CONTENT_SNAPSHOT_H_
#define TSFM_SKETCH_CONTENT_SNAPSHOT_H_

#include "sketch/minhash.h"
#include "table/table.h"

namespace tsfm {

/// Rows folded into a content snapshot.
inline constexpr size_t kSnapshotRows = 256;

/// Builds the content snapshot MinHash of `table`: each of the first
/// kSnapshotRows rows is rendered as one string and folded into the
/// signature.
MinHash MakeContentSnapshot(const Table& table, size_t num_perm = 32);

}  // namespace tsfm

#endif  // TSFM_SKETCH_CONTENT_SNAPSHOT_H_
