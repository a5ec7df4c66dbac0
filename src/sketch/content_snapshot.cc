#include "sketch/content_snapshot.h"

#include <algorithm>

namespace tsfm {

MinHash MakeContentSnapshot(const Table& table, size_t num_perm) {
  MinHash mh(num_perm);
  const size_t rows = std::min(table.num_rows(), kSnapshotRows);
  for (size_t r = 0; r < rows; ++r) {
    mh.Update(table.RowString(r));
  }
  return mh;
}

}  // namespace tsfm
