// POD binary stream helpers shared by the search-layer serializers
// (LakeIndex, HnswIndex's graph section, LakeManifest). Little-endian host
// layout, matching the rest of the on-disk formats.
#ifndef TSFM_SEARCH_STREAM_IO_H_
#define TSFM_SEARCH_STREAM_IO_H_

#include <istream>
#include <ostream>

namespace tsfm::search::io {

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(*value));
  return static_cast<bool>(in);
}

}  // namespace tsfm::search::io

#endif  // TSFM_SEARCH_STREAM_IO_H_
