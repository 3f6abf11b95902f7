// Byte-image helpers shared by every binary format the library writes
// and reads: parameter files and checkpoints (ag/serialize), the trainer
// state blob, snapshots and the IVF section. Writers append fixed-width
// values with AppendPod; readers walk the in-memory file image with a
// bounds-checked Cursor, so a truncated file fails cleanly instead of
// reading past the buffer.

#ifndef DGNN_UTIL_BYTES_H_
#define DGNN_UTIL_BYTES_H_

#include <cstddef>
#include <cstring>
#include <string>

namespace dgnn::util {

template <typename T>
void AppendPod(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

struct Cursor {
  const char* data;
  size_t size;
  size_t pos = 0;

  // Copies the next n bytes into `out`; false (nothing consumed) when
  // fewer remain. An empty read touches neither pointer: an empty
  // payload's destination (an empty tensor's data()) may be null.
  bool Read(void* out, size_t n) {
    if (n > size - pos) return false;
    if (n == 0) return true;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
  template <typename T>
  bool ReadPod(T* out) {
    return Read(out, sizeof(T));
  }
  // Bytes left to read: the most a count or length read from the file
  // can cover, checked before anything is sized from it.
  size_t remaining() const { return size - pos; }
  bool exhausted() const { return pos == size; }
};

}  // namespace dgnn::util

#endif  // DGNN_UTIL_BYTES_H_
